#include "circuit/transient.hpp"

#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"

namespace gnrfet::circuit {

std::vector<double> Waveforms::node(const Circuit& ckt, NodeId n) const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(ckt.voltage(s, n));
  return out;
}

std::vector<double> Waveforms::branch(const Circuit& ckt, size_t branch_index) const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s[ckt.unknown_of_branch(branch_index)]);
  return out;
}

void extrapolate_start(const Waveforms& waves, double h, std::vector<double>& x) {
  const std::vector<double>& x1 = waves.samples.back();
  if (waves.samples.size() < 2) {
    x = x1;
    return;
  }
  const std::vector<double>& x0 = waves.samples[waves.samples.size() - 2];
  const size_t last = waves.time.size() - 1;
  const double ratio = h / (waves.time[last] - waves.time[last - 1]);
  x.resize(x1.size());
  for (size_t i = 0; i < x1.size(); ++i) x[i] = x1[i] + ratio * (x1[i] - x0[i]);
}

namespace {

/// A failed step is halved at most this many times (down to dt / 64).
constexpr int kMaxStepHalvings = 6;

/// The accepted transient so far and the workspace that advances it.
struct Stepper {
  const Circuit& ckt;
  std::vector<double>& x;
  std::vector<double>& state;
  MnaWorkspace ws;
  Waveforms& waves;

  /// Advances and commits the accepted point, at time t - h, to time t,
  /// starting Newton from extrapolate_start. A step Newton does not
  /// converge is rejected: nothing commits, and the interval is retried as
  /// two half steps, at most kMaxStepHalvings - halvings more times.
  bool advance(double t, double h, int halvings) {
    TransientContext ctx;
    ctx.time = t;
    ctx.dt = h;
    ctx.state = &state;
    extrapolate_start(waves, h, x);
    if (newton_solve(ckt, ctx, kTransientNewton, x, ws)) {
      for (const auto& e : ckt.elements()) e->commit(ckt, x, ctx, state);
      metrics::add(metrics::Counter::kTransientSteps);
      waves.time.push_back(t);
      waves.samples.push_back(x);
      return true;
    }
    if (halvings == kMaxStepHalvings) {
      metrics::add(metrics::Counter::kTransientStepFailures);
      return false;
    }
    metrics::add(metrics::Counter::kTransientStepRejections);
    const double half = 0.5 * h;
    return advance(waves.time.back() + half, half, halvings + 1) &&
           advance(t, half, halvings + 1);
  }
};

/// Steps of a `t_stop` horizon at `dt`: a ratio within 1e-9 relative of a
/// whole number is that number (1 ns / 0.5 ps is 2000.0000000000002 in
/// doubles, and takes 2000 steps), any other its ceiling.
size_t step_count(double t_stop, double dt) {
  const double ratio = t_stop / dt;
  const double nearest = std::round(ratio);
  return static_cast<size_t>(std::abs(ratio - nearest) <= 1e-9 * nearest ? nearest
                                                                         : std::ceil(ratio));
}

}  // namespace

TransientResult run_transient(const Circuit& ckt, const TransientOptions& opts) {
  trace::Span span("circuit", "run_transient");
  GNRFET_REQUIRE("circuit", "positive-timestep", opts.dt > 0.0 && std::isfinite(opts.dt),
                 strings::format("dt = %g must be finite and > 0", opts.dt));
  GNRFET_REQUIRE("circuit", "finite-horizon",
                 opts.t_stop >= 0.0 && std::isfinite(opts.t_stop),
                 strings::format("t_stop = %g must be finite and >= 0", opts.t_stop));
  TransientResult result;
  const size_t n = ckt.num_unknowns();

  std::vector<double> x;
  if (!opts.initial_x.empty()) {
    if (opts.initial_x.size() != n) {
      throw std::invalid_argument("run_transient: initial_x size mismatch");
    }
    x = opts.initial_x;
  } else {
    const DcResult dc = solve_dc(ckt);
    if (!dc.converged) return result;
    x = dc.x;
  }

  std::vector<double> state(ckt.state_size(), 0.0);
  for (const auto& e : ckt.elements()) e->commit(ckt, x, TransientContext{}, state);

  const size_t steps = step_count(opts.t_stop, opts.dt);
  result.waves.time.reserve(steps + 1);
  result.waves.samples.reserve(steps + 1);
  result.waves.time.push_back(0.0);
  result.waves.samples.push_back(x);

  Stepper stepper{ckt, x, state, MnaWorkspace(n), result.waves};
  for (size_t step = 1; step <= steps; ++step) {
    if (!stepper.advance(static_cast<double>(step) * opts.dt, opts.dt, 0)) return result;
  }
  result.ok = true;
  return result;
}

}  // namespace gnrfet::circuit
