#pragma once

#include <cmath>
#include <memory>
#include <vector>

#include "circuit/elements.hpp"
#include "circuit/netlists.hpp"
#include "device/tablegen.hpp"
#include "model/array_fet.hpp"
#include "model/extrinsic_fet.hpp"
#include "model/intrinsic_fet.hpp"

/// Synthetic, analytically smooth ambipolar device table used by the model
/// and circuit tests: hermetic (no dependency on the NEGF table cache) and
/// fast, while reproducing the structural properties the models rely on —
/// ambipolarity with minimum near VG = VD/2, I = 0 at VD = 0, and the
/// source/drain swap symmetry of the physical device. Also the small test
/// circuits built on it: a ramped input source and a latch.
namespace gnrfet::synthetic {

inline double synthetic_current(double vg, double vd) {
  const auto branch = [](double x) {
    const double s = 0.06;
    const double v = s * std::log1p(std::exp(x / s));
    return v * v;
  };
  const double sat = std::tanh(vd / 0.12);
  // Electron branch rises with vg, hole branch with (vd - vg): symmetric
  // under vg -> vd - vg like the ambipolar SBFET.
  return 4e-5 * sat * (branch(vg - 0.3) + branch(vd - vg - 0.3) + 1e-4);
}

inline double synthetic_charge(double vg, double vd) {
  // Smooth channel charge, negative (electrons) at high vg.
  return -2e-18 * (vg - 0.5 * vd);
}

inline device::DeviceTable synthetic_table() {
  device::DeviceTable t;
  const size_t ng = 41, nd = 31;
  for (size_t i = 0; i < ng; ++i) t.vg.push_back(-0.25 + 1.25 * double(i) / (ng - 1));
  for (size_t i = 0; i < nd; ++i) t.vd.push_back(0.75 * double(i) / (nd - 1));
  t.band_gap_eV = 0.6;
  for (size_t ig = 0; ig < ng; ++ig) {
    for (size_t id = 0; id < nd; ++id) {
      t.current_A.push_back(synthetic_current(t.vg[ig], t.vd[id]));
      t.charge_C.push_back(synthetic_charge(t.vg[ig], t.vd[id]));
    }
  }
  return t;
}

inline model::IntrinsicFet synthetic_fet(model::Polarity pol, double offset = 0.0) {
  static const model::FetTables tables = model::make_fet_tables(synthetic_table());
  return model::IntrinsicFet(tables.current_A, tables.charge_C, pol, offset);
}

/// Array of `count` identical channels.
inline model::ArrayFet uniform_array(const model::IntrinsicFet& channel, size_t count) {
  return model::ArrayFet(std::vector<model::IntrinsicFet>(count, channel));
}

/// Inverter of two 4-GNR synthetic arrays with 40 nm-wide contacts.
inline circuit::InverterModels synthetic_inverter(double offset = 0.12) {
  const auto par = model::Parasitics::from_per_width(0.05, 40.0);
  circuit::InverterModels m;
  m.nfet = model::make_extrinsic(uniform_array(synthetic_fet(model::Polarity::kN, offset), 4),
                                 par);
  m.pfet = model::make_extrinsic(uniform_array(synthetic_fet(model::Polarity::kP, offset), 4),
                                 par);
  return m;
}

/// Rising/falling step with linear ramp, for delay measurements.
inline circuit::VoltageSource::Waveform pulse_waveform(double v0, double v1, double t_start,
                                                       double t_rise) {
  return [=](double t) {
    if (t <= t_start) return v0;
    if (t >= t_start + t_rise) return v1;
    return v0 + (v1 - v0) * (t - t_start) / t_rise;
  };
}

/// Cross-coupled inverter latch (for DC/static-power checks; the butterfly
/// SNM uses the VTCs directly, see circuit/snm.hpp).
struct Latch {
  circuit::Circuit ckt;
  circuit::NodeId q = 0, qb = 0, vdd_node = 0;
  size_t vdd_branch = 0;
  double vdd = 0.0;
};

inline Latch build_latch(const circuit::InverterModels& fwd, const circuit::InverterModels& bwd,
                         double vdd) {
  Latch l;
  l.vdd = vdd;
  l.vdd_node = l.ckt.new_node();
  auto vdd_src = std::make_unique<circuit::VoltageSource>(l.vdd_node, circuit::kGround, vdd);
  l.vdd_branch = vdd_src->branch();
  l.ckt.add(std::move(vdd_src));
  l.q = l.ckt.new_node();
  l.qb = l.ckt.new_node();
  circuit::add_inverter(l.ckt, fwd, l.q, l.qb, l.vdd_node);
  circuit::add_inverter(l.ckt, bwd, l.qb, l.q, l.vdd_node);
  return l;
}

}  // namespace gnrfet::synthetic
