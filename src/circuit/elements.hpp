#pragma once

#include <functional>

#include "circuit/mna.hpp"
#include "model/extrinsic_fet.hpp"

/// Concrete circuit elements: R, C, V source (DC / pulse), the table-model
/// GNRFET core, and the gate-input load used for fanout-of-4 loading.
namespace gnrfet::circuit {

// Test seam: builds the analytic RC and divider checks of DC and transient.
class Resistor final : public Element {
 public:
  Resistor(NodeId a, NodeId b, double ohms);
  void stamp(Stamper& st, const TransientContext& ctx) const override;

 private:
  NodeId a_, b_;
  double g_;
};

/// Linear capacitor, trapezoidal companion. State: [q_prev, i_prev, v_prev].
// Test seam: builds the analytic RC transient check.
class Capacitor final : public Element {
 public:
  Capacitor(NodeId a, NodeId b, double farads);
  size_t state_size() const override { return 3; }
  void stamp(Stamper& st, const TransientContext& ctx) const override;
  void commit(const Circuit& ckt, const std::vector<double>& x, const TransientContext& ctx,
              std::vector<double>& state) const override;

 private:
  NodeId a_, b_;
  double c_;
};

/// Voltage source with optional waveform; one branch unknown.
class VoltageSource final : public Element {
 public:
  using Waveform = std::function<double(double /*time*/)>;
  VoltageSource(NodeId plus, NodeId minus, double dc_volts);
  VoltageSource(NodeId plus, NodeId minus, Waveform waveform);
  size_t num_branches() const override { return 1; }
  void stamp(Stamper& st, const TransientContext& ctx) const override;

  /// The branch index (for current probing).
  size_t branch() const { return branch_offset_; }
  void set_dc(double volts) { dc_ = volts; }

 private:
  NodeId p_, m_;
  double dc_ = 0.0;
  Waveform waveform_;
};

/// The extrinsic GNRFET of Fig. 3(a). External nodes (d, g, s); internal
/// nodes d'/s' must be created by the caller (netlist builder) so they can
/// be probed. Stamps:
///   RD (d-d'), RS (s-s'), channel current I(vg-vs', vd'-vs'),
///   intrinsic gate charges via CGS,i / CGD,i from the Q tables,
///   extrinsic constant capacitances CGS,e (g-s), CGD,e (g-d).
/// State: [qgs, igs, vgs', qgd, igd, vgd', qgse, igse, vgs, qgde, igde, vgd].
class Fet final : public Element {
 public:
  Fet(model::ExtrinsicFet fet, NodeId d, NodeId g, NodeId s, NodeId d_int, NodeId s_int);
  size_t state_size() const override { return 12; }
  void stamp(Stamper& st, const TransientContext& ctx) const override;
  void commit(const Circuit& ckt, const std::vector<double>& x, const TransientContext& ctx,
              std::vector<double>& state) const override;

 private:
  model::ExtrinsicFet fet_;
  NodeId d_, g_, s_, di_, si_;
};

/// Gate-input loading of `fanout` identical inverters (their n- and p-FET
/// gates) at one node, used to build fanout-of-4 loads without simulating
/// dangling inverters. Each gate is a nonlinear grounded capacitor at the
/// driven node:
///   C(v) = Cg_n(v, VDD - v) + Cg_p(v - VDD, -v) + 2 (CGS,e + CGD,e),
/// i.e. the intrinsic gate capacitances |dQ/dVGS| of both devices with the
/// load-inverter output at its quasi-static (inverted) value, plus the
/// extrinsic junction capacitances. The gates of a group share one node,
/// one model pair and one VDD, so their charge states are equal: the group
/// keeps one state [q, i, v] and samples the charge tables once per call.
class InverterGateLoad final : public Element {
 public:
  /// Throws std::invalid_argument if fanout < 1.
  InverterGateLoad(model::ExtrinsicFet nfet, model::ExtrinsicFet pfet, NodeId node, double vdd,
                   int fanout = 1);
  size_t state_size() const override { return 3; }
  void stamp(Stamper& st, const TransientContext& ctx) const override;
  void commit(const Circuit& ckt, const std::vector<double>& x, const TransientContext& ctx,
              std::vector<double>& state) const override;

  /// Input capacitance of one gate of the group at gate voltage v
  /// (exposed for calibration checks).
  double capacitance(double v) const;

 private:
  model::ExtrinsicFet n_, p_;
  NodeId node_;
  double vdd_;
  int fanout_;
};

}  // namespace gnrfet::circuit
