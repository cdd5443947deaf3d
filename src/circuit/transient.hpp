#pragma once

#include "circuit/dc.hpp"

/// Fixed-step trapezoidal transient analysis.
namespace gnrfet::circuit {

struct TransientOptions {
  double t_stop = 1e-9;
  double dt = 0.25e-12;
  /// Optional initial node voltages (size = num_unknowns). When set, the
  /// run starts from this state instead of the DC operating point — used
  /// to kick ring oscillators.
  std::vector<double> initial_x;
};

struct Waveforms {
  std::vector<double> time;
  /// samples[step][unknown]: node voltages followed by branch currents.
  std::vector<std::vector<double>> samples;

  std::vector<double> node(const Circuit& ckt, NodeId n) const;
  std::vector<double> branch(const Circuit& ckt, size_t branch_index) const;
};

struct TransientResult {
  bool ok = false;
  Waveforms waves;
};

/// Fixed-step run: each step is one newton_solve under kTransientNewton.
/// Gives up with `ok == false` on the first step Newton does not converge
/// (counted as `transient_step_failures` in metrics), including a singular
/// Jacobian, or when the starting DC point does not converge.
TransientResult run_transient(const Circuit& ckt, const TransientOptions& opts);

}  // namespace gnrfet::circuit
