#pragma once

#include "poisson/assembly.hpp"

/// Nonlinear Poisson problem of the Gummel loop, and its full-grid solve.
///
/// The NEGF charge at the reference potential phi_ref is split into
/// electron (n0 >= 0) and hole (p0 >= 0) node populations. Within one
/// Gummel iteration the charge responds to the new potential through the
/// standard exponential linearization
///   q(phi) = -n0 exp((phi - phi_ref)/Vt) + p0 exp(-(phi - phi_ref)/Vt)
///            + rho_fixed,
/// which regularizes the fixed-point iteration (Trellakis/Gummel). The
/// device loop solves it on the ribbon's charge nodes
/// (poisson/capacitance.hpp). The full-grid entry points below, Newton
/// with an SPD Jacobian (A + diag((n + p)/Vt)) and IC(0)-preconditioned,
/// warm-started PCG inner solves (see poisson/solver.hpp for the
/// reusable-solver entry point), are its oracle.
namespace gnrfet::poisson {

struct NonlinearOptions {
  double thermal_voltage_V = 0.02585;
  double tolerance_V = 1e-5;
  int max_newton_iterations = 60;
  double max_step_V = 0.1;  ///< per-iteration potential damping clamp
};

struct NonlinearResult {
  std::vector<double> phi_full;  ///< potential on the full grid [V]
  bool converged = false;  ///< false: ran out of Newton iterations (counted
                           ///< in metrics as poisson_newton_unconverged)
  int iterations = 0;
  double last_update_V = 0.0;
};

/// Solve A phi = rhs(V, q(phi)). `n0_e`/`p0_e`/`rho_fixed_e` are nodal
/// populations/charges on the full grid (units of e); `phi_ref_full` and
/// the initial guess `phi_init_full` are full-grid potentials.
NonlinearResult solve_nonlinear_poisson(const Assembly& assembly,
                                        const std::vector<double>& electrode_voltages,
                                        const std::vector<double>& n0_e,
                                        const std::vector<double>& p0_e,
                                        const std::vector<double>& rho_fixed_e,
                                        const std::vector<double>& phi_ref_full,
                                        const std::vector<double>& phi_init_full,
                                        const NonlinearOptions& opts = {});

/// Plain linear solve (no mobile charge), for tests and initialization.
std::vector<double> solve_linear_poisson(const Assembly& assembly,
                                         const std::vector<double>& electrode_voltages,
                                         const std::vector<double>& rho_e);

}  // namespace gnrfet::poisson
