#include "poisson/newton.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/contracts.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"

namespace gnrfet::poisson::newton {

namespace {
double clamped_exp(double x) { return std::exp(std::clamp(x, -30.0, 30.0)); }
}  // namespace

void linearised_charge(const std::vector<double>& n0, const std::vector<double>& p0,
                       const std::vector<double>& phi, const std::vector<double>& phi_ref,
                       double vt, std::vector<double>& q, std::vector<double>& d) {
  for (size_t f = 0; f < phi.size(); ++f) {
    const double en = clamped_exp((phi[f] - phi_ref[f]) / vt);
    const double ep = clamped_exp(-(phi[f] - phi_ref[f]) / vt);
    q[f] = -n0[f] * en + p0[f] * ep;
    d[f] = (n0[f] * en + p0[f] * ep) / vt;
  }
}

double StepClamp::apply(const std::vector<double>& delta, std::vector<double>& phi) {
  double max_update = 0.0;
  double max_raw = 0.0;
  for (size_t f = 0; f < phi.size(); ++f) {
    const double step = std::clamp(delta[f], -clamp_, clamp_);
    phi[f] += step;
    max_update = std::max(max_update, std::abs(step));
    max_raw = std::max(max_raw, std::abs(delta[f]));
  }
  if (max_raw > clamp_) {
    if (++saturated_steps_ >= 2 && clamp_ < 4.0) {
      clamp_ *= 2.0;
      saturated_steps_ = 0;
    }
  } else {
    saturated_steps_ = 0;
    clamp_ = base_;
  }
  return max_update;
}

void ResidualGuard::check(int iteration, double f_norm) {
  GNRFET_CHECK_FINITE("poisson", "finite-residual", f_norm);
  if (iteration == 0) {
    f_min_ = f_norm;
  } else {
    GNRFET_REQUIRE("poisson", "residual-bounded", f_norm <= 1e4 * f_min_ + 1e-12,
                   strings::format("Newton iteration %d: residual %g vs best %g", iteration,
                                   f_norm, f_min_));
    f_min_ = std::min(f_min_, f_norm);
  }
}

void record_solve(int iterations, bool converged) {
  metrics::add(metrics::Counter::kPoissonNewtonIterations, static_cast<uint64_t>(iterations));
  if (!converged) metrics::add(metrics::Counter::kPoissonNewtonUnconverged);
  metrics::observe(metrics::Histogram::kNewtonIterationsPerSolve,
                   static_cast<double>(iterations));
}

}  // namespace gnrfet::poisson::newton
