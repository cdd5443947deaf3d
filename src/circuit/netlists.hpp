#pragma once

#include <cstddef>
#include <vector>

#include "circuit/elements.hpp"
#include "circuit/transient.hpp"

/// Netlist builders for the paper's representative circuits: inverter with
/// fanout-of-4 load, 15-stage FO4 ring oscillator, and latch.
namespace gnrfet::circuit {

/// Complementary device pair of one inverter.
struct InverterModels {
  model::ExtrinsicFet nfet;
  model::ExtrinsicFet pfet;
};

/// Add one static inverter; creates the 4 internal contact nodes.
void add_inverter(Circuit& ckt, const InverterModels& models, NodeId in, NodeId out,
                  NodeId vdd);

/// Inverter driving a fanout-of-4 load, with a pulse input.
struct Fo4Testbench {
  Circuit ckt;
  NodeId in = 0, out = 0, vdd_node = 0;
  size_t vdd_branch = 0;  ///< supply branch index for power probing
  double vdd = 0.0;
};

Fo4Testbench build_fo4_inverter(const InverterModels& driver, const InverterModels& load,
                                double vdd, VoltageSource::Waveform input);

/// Stage count of the paper's FO4 ring oscillator (Figs. 3 and 6, Table 1).
inline constexpr size_t kRingStages = 15;

/// Ring oscillator of `stages.size()` stages (kRingStages in the paper);
/// every stage output carries 3 extra gate loads so each inverter drives a
/// fanout of 4 (next stage + 3 dummies).
struct RingOscillator {
  Circuit ckt;
  std::vector<NodeId> stage_out;
  NodeId vdd_node = 0;
  size_t vdd_branch = 0;
  double vdd = 0.0;

  /// Alternating-rail initial state that kicks the oscillation, bumped
  /// around the ring's DC point; around all zeros when that DC solve does
  /// not converge. `dc_converged`, if given, receives whether it did.
  std::vector<double> kick_state(bool* dc_converged = nullptr) const;
};

RingOscillator build_ring_oscillator(const std::vector<InverterModels>& stages,
                                     const InverterModels& load, double vdd);

}  // namespace gnrfet::circuit
