#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "linalg/pcg.hpp"
#include "linalg/preconditioner.hpp"
#include "poisson/assembly.hpp"
#include "poisson/nonlinear.hpp"

/// Test oracle of the poisson layer: the full-grid solve of the nonlinear
/// Poisson problem (poisson/nonlinear.hpp) that the production
/// capacitance-matrix Newton (poisson/capacitance.hpp) must reproduce on
/// the ribbon's charge nodes. Repeated solves share one sparsity pattern,
/// so PoissonSolver keeps everything that survives between them:
///
///  - a persistent Jacobian copy of the Laplacian whose diagonal is
///    retargeted in place each Newton iteration (diag(A) + charge term) —
///    no full SparseMatrix copy per iteration,
///  - the preconditioner, factored again each Newton iteration,
///  - the PCG workspace vectors and every Newton-loop scratch vector,
///  - the previous Newton update, which warm-starts the next inner PCG.
///
/// There is one solve path: preconditioned, warm-started PCG with
/// blocked-pairwise dot products inside one damped Newton loop, the
/// Newton–Raphson Poisson + PCG scheme of ViDES (arXiv:0704.1875), sharing
/// its clamp, residual contracts and metrics with the production solve
/// (poisson/newton.hpp). PoissonSolver(domain) assembles the domain's
/// operator and uses IC(0); the
/// two-argument constructor swaps only the preconditioner object, so the
/// tests can run the Jacobi reference through the same loop. One
/// PoissonSolver is used by one thread at a time; create one per
/// concurrent solve. The persistent workspaces are deliberately unlocked —
/// the class is thread-compatible, not thread-safe — so the solve entry
/// points carry a runtime single-owner contract
/// (poisson/solver-single-owner) that fires on concurrent entry.
namespace gnrfet::poisson {

struct NonlinearResult {
  std::vector<double> phi_full;  ///< potential on the full grid [V]
  bool converged = false;  ///< false: ran out of Newton iterations (counted
                           ///< in metrics as poisson_newton_unconverged)
  int iterations = 0;
  double last_update_V = 0.0;
};

class PoissonSolver {
 public:
  /// `domain` must outlive the solver.
  explicit PoissonSolver(const Domain& domain);
  PoissonSolver(const Domain& domain, linalg::PreconditionerKind kind);

  linalg::PreconditionerKind kind() const { return kind_; }

  /// Solve A phi = rhs(V, q(phi)). `n0_e`/`p0_e`/`rho_fixed_e` are nodal
  /// populations/charges on the full grid (units of e); `phi_ref_full` and
  /// the initial guess `phi_init_full` are full-grid potentials.
  NonlinearResult solve_nonlinear(const std::vector<double>& electrode_voltages,
                                  const std::vector<double>& n0_e,
                                  const std::vector<double>& p0_e,
                                  const std::vector<double>& rho_fixed_e,
                                  const std::vector<double>& phi_ref_full,
                                  const std::vector<double>& phi_init_full,
                                  const NonlinearOptions& opts = {});

  /// Plain linear solve (no mobile charge).
  std::vector<double> solve_linear(const std::vector<double>& electrode_voltages,
                                   const std::vector<double>& rho_e);

 private:
  /// Restore the persistent Jacobian to the pristine Laplacian diagonal
  /// and factor the preconditioner for it.
  void reset_jacobian();
  /// A full-grid field restricted to the free nodes.
  std::vector<double> restrict_to_free(const std::vector<double>& full) const;
  /// A free-node solution scattered onto the full grid; electrode nodes
  /// take their fixed voltages.
  std::vector<double> expand(const std::vector<double>& phi_free,
                             const std::vector<double>& electrode_voltages) const;

  const Domain& domain_;
  const Assembly assembly_;
  linalg::PreconditionerKind kind_;
  std::unique_ptr<linalg::Preconditioner> precond_;
  linalg::SparseMatrix jac_;        ///< persistent copy; only its diagonal moves
  std::vector<double> base_diag_;   ///< diag(A) of the pristine operator
  linalg::PcgWorkspace pcg_ws_;
  // Newton-loop scratch, allocated once.
  std::vector<double> delta_, residual_, ax_, rhs_, q_, screening_;
  /// Single-owner probe backing the solver-single-owner contract: set for
  /// the duration of each solve; a second concurrent entrant trips the
  /// contract instead of silently corrupting the shared workspaces.
  std::atomic<bool> in_use_{false};
};

}  // namespace gnrfet::poisson
