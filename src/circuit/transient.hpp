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

/// Sets `x` to the start of the Newton solve for the step of length `h`
/// after the last sample of `waves`: the linear extrapolation of the last
/// two samples (x0 at t0, x1 at t1), x1 + h / (t1 - t0) * (x1 - x0), over
/// their real spacing, so it also predicts a half step after a full one.
/// With one sample, `x` is that sample.
void extrapolate_start(const Waveforms& waves, double h, std::vector<double>& x);

struct TransientResult {
  bool ok = false;
  Waveforms waves;
};

/// Fixed-step run: the start point commits at dt = 0, then each step is
/// one newton_solve under kTransientNewton, started from extrapolate_start,
/// and one Element::commit per element. A horizon within 1e-9 relative of
/// a whole number of steps takes exactly that many; any other takes the
/// ceiling, ending past `t_stop`. A step Newton does not converge (a
/// singular Jacobian included) is rejected (counted as
/// `transient_step_rejections`): nothing commits, and the interval is
/// retried as two half steps, each committed and recorded in the
/// waveforms when accepted, recursively down to dt / 64.
/// Gives up with `ok == false` when a dt / 64 step fails (counted as
/// `transient_step_failures`), or when the starting DC point does not
/// converge.
TransientResult run_transient(const Circuit& ckt, const TransientOptions& opts);

}  // namespace gnrfet::circuit
