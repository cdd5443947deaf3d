#pragma once

#include <vector>

#include "poisson/nonlinear.hpp"

/// The pieces of the damped Newton loop that the production
/// capacitance-matrix solve (CapacitanceSolver::solve_nonlinear) and its
/// full-grid test oracle (PoissonSolver::solve_nonlinear,
/// tests/support/poisson_oracles.hpp) share, so the two run the same
/// iteration and differ only in the linear algebra of each step. Internal
/// to the poisson layer and its oracle.
namespace gnrfet::poisson::newton {

/// Exponentially linearised mobile charge at `phi` (see nonlinear.hpp):
/// q = -n0 e^{(phi - ref)/vt} + p0 e^{-(phi - ref)/vt} and its screening
/// term d = -dq/dphi = (n0 e^{..} + p0 e^{-..}) / vt >= 0, per node.
void linearised_charge(const std::vector<double>& n0, const std::vector<double>& p0,
                       const std::vector<double>& phi, const std::vector<double>& phi_ref,
                       double vt, std::vector<double>& q, std::vector<double>& d);

/// Trust-region-like damping: the clamp protects the exponential charge
/// linearisation, but doubles (up to 4 V) after two consecutive saturated
/// steps, so large linear excursions (e.g. unscreened far-field
/// potentials) still converge; an unsaturated step resets it.
class StepClamp {
 public:
  explicit StepClamp(double max_step_V) : base_(max_step_V), clamp_(max_step_V) {}

  /// phi += clamp(delta); returns the largest applied |step|.
  double apply(const std::vector<double>& delta, std::vector<double>& phi);

 private:
  double base_;
  double clamp_;
  int saturated_steps_ = 0;
};

/// The finite-residual and residual-bounded contracts on the Newton
/// residual max-norm: it must stay finite and must not run away from the
/// best residual seen so far (growth beyond the slack factor means the
/// linearisation is diverging, and every later Gummel iteration would
/// silently inherit the junk potential).
class ResidualGuard {
 public:
  void check(int iteration, double f_norm);

 private:
  double f_min_ = 0.0;  ///< smallest residual norm seen so far
};

/// Counts one finished nonlinear solve: poisson_newton_iterations,
/// poisson_newton_unconverged and the Newton-per-solve histogram.
void record_solve(int iterations, bool converged);

}  // namespace gnrfet::poisson::newton
