#include "circuit/dc.hpp"

#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace gnrfet::circuit {

DcResult solve_dc(const Circuit& ckt, const std::vector<double>& initial) {
  trace::Span span("circuit", "solve_dc");
  const size_t n = ckt.num_unknowns();
  DcResult result;
  result.x.assign(n, 0.0);
  if (initial.size() == n) result.x = initial;

  MnaWorkspace ws(n);
  TransientContext ctx;  // dt = 0: charge branches are open
  if (newton_solve(ckt, ctx, kDcNewton, result.x, ws)) {
    result.converged = true;
    return result;
  }
  // Source stepping from zero.
  std::vector<double> x(n, 0.0);
  const int steps = 20;
  for (int s = 1; s <= steps; ++s) {
    ctx.source_scale = static_cast<double>(s) / steps;
    if (!newton_solve(ckt, ctx, kDcNewton, x, ws)) {
      metrics::add(metrics::Counter::kDcUnconverged);
      return result;
    }
  }
  result.x = std::move(x);
  result.converged = true;
  return result;
}

}  // namespace gnrfet::circuit
