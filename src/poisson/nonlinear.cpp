#include "poisson/nonlinear.hpp"

#include "poisson/solver.hpp"

namespace gnrfet::poisson {

// Thin wrappers: both entry points construct a transient IC(0)
// PoissonSolver. Hot loops that solve the same
// assembly repeatedly should hold a PoissonSolver instead — it keeps the
// Jacobian, preconditioner factorization, and PCG workspace alive across
// solves (see poisson/solver.hpp).

std::vector<double> solve_linear_poisson(const Assembly& assembly,
                                         const std::vector<double>& electrode_voltages,
                                         const std::vector<double>& rho_e) {
  PoissonSolver solver(assembly);
  return solver.solve_linear(electrode_voltages, rho_e);
}

NonlinearResult solve_nonlinear_poisson(const Assembly& assembly,
                                        const std::vector<double>& electrode_voltages,
                                        const std::vector<double>& n0_e,
                                        const std::vector<double>& p0_e,
                                        const std::vector<double>& rho_fixed_e,
                                        const std::vector<double>& phi_ref_full,
                                        const std::vector<double>& phi_init_full,
                                        const NonlinearOptions& opts) {
  PoissonSolver solver(assembly);
  return solver.solve_nonlinear(electrode_voltages, n0_e, p0_e, rho_fixed_e, phi_ref_full,
                                phi_init_full, opts);
}

}  // namespace gnrfet::poisson
