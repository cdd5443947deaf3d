#include "support/poisson_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/constants.hpp"
#include "common/contracts.hpp"
#include "common/trace.hpp"
#include "poisson/newton.hpp"
#include "support/linalg_oracles.hpp"

namespace gnrfet::poisson {

namespace {

/// Enforces the solver-single-owner contract for a scope: the persistent
/// Jacobian/preconditioner/PCG workspaces are thread-compatible, not
/// thread-safe, so concurrent entry is a caller bug we trap at the door
/// instead of letting it decay into corrupted warm starts.
struct SingleOwnerGuard {
  explicit SingleOwnerGuard(std::atomic<bool>& in_use) : in_use_(in_use) {
    GNRFET_REQUIRE("poisson", "solver-single-owner",
                   !in_use_.exchange(true, std::memory_order_acquire),
                   "PoissonSolver entered concurrently; create one solver per "
                   "concurrent solve (parallelism is across solves)");
  }
  ~SingleOwnerGuard() { in_use_.store(false, std::memory_order_release); }
  SingleOwnerGuard(const SingleOwnerGuard&) = delete;
  SingleOwnerGuard& operator=(const SingleOwnerGuard&) = delete;

 private:
  std::atomic<bool>& in_use_;
};

}  // namespace

PoissonSolver::PoissonSolver(const Domain& domain)
    : PoissonSolver(domain, linalg::PreconditionerKind::kIc0) {}

PoissonSolver::PoissonSolver(const Domain& domain, linalg::PreconditionerKind kind)
    : domain_(domain),
      assembly_(domain),
      kind_(kind),
      precond_(linalg::make_preconditioner(kind)),
      jac_(assembly_.matrix()),
      base_diag_(linalg::diagonal(assembly_.matrix())) {
  const size_t nf = assembly_.num_free();
  delta_.assign(nf, 0.0);
  residual_.resize(nf);
  ax_.resize(nf);
  rhs_.resize(nf);
  q_.resize(nf);
  screening_.resize(nf);
}

void PoissonSolver::reset_jacobian() {
  for (size_t f = 0; f < assembly_.num_free(); ++f) jac_.set_diagonal(f, base_diag_[f]);
  precond_->factor(jac_);
}

std::vector<double> PoissonSolver::restrict_to_free(const std::vector<double>& full) const {
  std::vector<double> out(assembly_.num_free());
  for (size_t node = 0; node < full.size(); ++node) {
    const size_t f = assembly_.free_index(node);
    if (f != std::numeric_limits<size_t>::max()) out[f] = full[node];
  }
  return out;
}

std::vector<double> PoissonSolver::expand(const std::vector<double>& phi_free,
                                          const std::vector<double>& electrode_voltages) const {
  std::vector<double> full(domain_.spec().num_nodes());
  for (size_t node = 0; node < full.size(); ++node) {
    const int el = domain_.electrode_at(node);
    full[node] = el >= 0 ? electrode_voltages[static_cast<size_t>(el)]
                         : phi_free[assembly_.free_index(node)];
  }
  return full;
}

std::vector<double> PoissonSolver::solve_linear(const std::vector<double>& electrode_voltages,
                                                const std::vector<double>& rho_e) {
  trace::Span span("poisson", "solve_linear_poisson");
  SingleOwnerGuard owner(in_use_);
  GNRFET_REQUIRE("poisson", "finite-charge", contracts::all_finite(rho_e),
                 "charge density contains NaN/inf");
  GNRFET_REQUIRE("poisson", "finite-boundary", contracts::all_finite(electrode_voltages),
                 "electrode voltages contain NaN/inf");
  const std::vector<double> b = assembly_.rhs(electrode_voltages, rho_e);
  reset_jacobian();  // jac_ back to the pristine Laplacian
  std::vector<double> x(assembly_.num_free(), 0.0);
  if (!linalg::pcg_solve(jac_, b, x, *precond_, pcg_ws_).converged) {
    throw std::runtime_error("solve_linear_poisson: linear solve did not converge");
  }
  return expand(x, electrode_voltages);
}

NonlinearResult PoissonSolver::solve_nonlinear(const std::vector<double>& electrode_voltages,
                                               const std::vector<double>& n0_e,
                                               const std::vector<double>& p0_e,
                                               const std::vector<double>& rho_fixed_e,
                                               const std::vector<double>& phi_ref_full,
                                               const std::vector<double>& phi_init_full,
                                               const NonlinearOptions& opts) {
  trace::Span span("poisson", "solve_nonlinear_poisson");
  SingleOwnerGuard owner(in_use_);
  const size_t n_nodes = phi_ref_full.size();
  if (n0_e.size() != n_nodes || p0_e.size() != n_nodes || rho_fixed_e.size() != n_nodes ||
      phi_init_full.size() != n_nodes) {
    throw std::invalid_argument("solve_nonlinear_poisson: field size mismatch");
  }
  GNRFET_REQUIRE("poisson", "finite-charge",
                 contracts::all_finite(n0_e) && contracts::all_finite(p0_e) &&
                     contracts::all_finite(rho_fixed_e),
                 "nodal charge populations contain NaN/inf (poisoned NEGF output?)");
  GNRFET_REQUIRE("poisson", "finite-potential",
                 contracts::all_finite(phi_ref_full) && contracts::all_finite(phi_init_full) &&
                     contracts::all_finite(electrode_voltages),
                 "reference/initial potential or electrode voltages contain NaN/inf");
  const double vt = constants::kRoomTemperatureKT_eV;

  // Work on free nodes only.
  std::vector<double> phi = restrict_to_free(phi_init_full);
  const std::vector<double> phi_ref = restrict_to_free(phi_ref_full);
  const std::vector<double> n0 = restrict_to_free(n0_e);
  const std::vector<double> p0 = restrict_to_free(p0_e);
  const size_t nf = assembly_.num_free();

  NonlinearResult result;

  // The assembled right-hand side depends only on the boundary voltages
  // and the fixed charge, both invariant across the Newton loop: assemble
  // it once per solve instead of once per iteration.
  const std::vector<double> b_fixed = assembly_.rhs(electrode_voltages, rho_fixed_e);

  // Warm-starting the inner PCG from the previous Newton update pays off
  // because consecutive Newton systems differ only by a shrinking
  // diagonal term.
  std::fill(delta_.begin(), delta_.end(), 0.0);

  linalg::PcgOptions pcg_opts;
  pcg_opts.rel_tolerance = 1e-9;

  newton::StepClamp step_clamp(kMaxNewtonStep_V);
  newton::ResidualGuard guard;
  for (int it = 0; it < opts.max_newton_iterations; ++it) {
    // Residual F = A phi - b(V, q(phi)); b folds Dirichlet links + charge.
    newton::linearised_charge(n0, p0, phi, phi_ref, vt, q_, screening_);
    assembly_.matrix().multiply(phi, ax_);
    double f_norm = 0.0;
    for (size_t f = 0; f < nf; ++f) {
      residual_[f] = ax_[f] - b_fixed[f] - q_[f];
      f_norm = std::max(f_norm, std::abs(residual_[f]));
    }
    guard.check(it, f_norm);
    // Newton system: (A + diag(-dq/dphi)) delta = -F. The persistent
    // Jacobian copy is retargeted diagonal-only (the off-diagonals never
    // change), and the preconditioner is factored for it.
    for (size_t f = 0; f < nf; ++f) jac_.set_diagonal(f, base_diag_[f] + screening_[f]);
    {
      trace::Span refresh("linalg", "precond_refactor");
      precond_->factor(jac_);
    }
    for (size_t f = 0; f < nf; ++f) rhs_[f] = -residual_[f];
    if (!linalg::pcg_solve(jac_, rhs_, delta_, *precond_, pcg_ws_, pcg_opts).converged) {
      throw std::runtime_error("solve_nonlinear_poisson: inner linear solve did not converge");
    }
    const double max_update = step_clamp.apply(delta_, phi);
    result.iterations = it + 1;
    result.last_update_V = max_update;
    if (max_update < kNewtonTolerance_V) {
      result.converged = true;
      break;
    }
  }
  newton::record_solve(result.iterations, result.converged);
  result.phi_full = expand(phi, electrode_voltages);
  return result;
}

}  // namespace gnrfet::poisson
