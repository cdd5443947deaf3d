#include "circuit/transient.hpp"

#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"

namespace gnrfet::circuit {

std::vector<double> Waveforms::node(const Circuit& ckt, NodeId n) const {
  const ptrdiff_t u = ckt.unknown_of_node(n);
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(u < 0 ? 0.0 : s[static_cast<size_t>(u)]);
  return out;
}

std::vector<double> Waveforms::branch(const Circuit& ckt, size_t branch_index) const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s[ckt.unknown_of_branch(branch_index)]);
  return out;
}

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
  for (const auto& e : ckt.elements()) e->init_state(ckt, x, state);

  const size_t steps = static_cast<size_t>(std::ceil(opts.t_stop / opts.dt));
  result.waves.time.reserve(steps + 1);
  result.waves.samples.reserve(steps + 1);
  result.waves.time.push_back(0.0);
  result.waves.samples.push_back(x);

  MnaWorkspace ws(n);
  std::vector<double> state_next(state.size(), 0.0);
  for (size_t step = 1; step <= steps; ++step) {
    const double t = static_cast<double>(step) * opts.dt;
    TransientContext ctx;
    ctx.time = t;
    ctx.dt = opts.dt;
    ctx.state_prev = &state;
    ctx.state_next = &state_next;
    if (!newton_solve(ckt, ctx, kTransientNewton, x, ws)) {
      metrics::add(metrics::Counter::kTransientStepFailures);
      return result;
    }
    // One final stamp to refresh state_next consistently with accepted x.
    ws.stamp(ckt, x, ctx);
    state.swap(state_next);
    metrics::add(metrics::Counter::kTransientSteps);
    result.waves.time.push_back(t);
    result.waves.samples.push_back(x);
  }
  result.ok = true;
  return result;
}

}  // namespace gnrfet::circuit
