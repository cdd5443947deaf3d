#pragma once

#include <atomic>
#include <memory>

#include "linalg/pcg.hpp"
#include "linalg/preconditioner.hpp"
#include "poisson/assembly.hpp"
#include "poisson/nonlinear.hpp"

/// Reusable full-grid linear/nonlinear Poisson solver around one Assembly.
///
/// The device loop runs its Newton on the capacitance matrix of the
/// ribbon's charge nodes (poisson/capacitance.hpp); solve_nonlinear() here
/// is that solve's test oracle on all free nodes, and
/// solve_linear() the plain full-grid solve. Repeated solves share one
/// sparsity pattern, so this object keeps everything that survives between
/// them:
///
///  - a persistent Jacobian copy of the Laplacian whose diagonal is
///    retargeted in place each Newton iteration (diag(A) + charge term) —
///    no full SparseMatrix copy per iteration,
///  - the preconditioner factorization, numerically refreshed via
///    Preconditioner::refactor() because only the diagonal moved,
///  - the PCG workspace vectors and every Newton-loop scratch vector,
///  - the previous Newton update, which warm-starts the next inner PCG.
///
/// There is one solve path: IC(0)-preconditioned, warm-started PCG with
/// blocked-pairwise dot products inside one damped Newton loop, the
/// Newton–Raphson Poisson + PCG scheme of ViDES (arXiv:0704.1875).
/// PoissonSolver(assembly) always uses IC(0); the two-argument constructor
/// swaps only the preconditioner object, so the tests can run the
/// Jacobi reference through the same loop. One PoissonSolver is used by
/// one thread at a time; create one per concurrent solve (the thread-pool
/// parallelism is across solves). The persistent workspaces are
/// deliberately unlocked — the class is thread-compatible, not
/// thread-safe — so instead of a capability annotation the solve entry
/// points carry a runtime single-owner contract
/// (poisson/solver-single-owner) that fires on concurrent entry.
namespace gnrfet::poisson {

/// Read only by perfbench's record line; delete with the `[benchmark]` refresh.
inline linalg::PreconditionerKind preconditioner_kind_from_env() {
  return linalg::PreconditionerKind::kIc0;
}

class PoissonSolver {
 public:
  explicit PoissonSolver(const Assembly& assembly);
  PoissonSolver(const Assembly& assembly, linalg::PreconditionerKind kind);

  linalg::PreconditionerKind kind() const { return kind_; }

  /// Nonlinear (exponentially screened) solve; see nonlinear.hpp for the
  /// field conventions.
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
  /// and refresh the preconditioner.
  void reset_jacobian();

  const Assembly& assembly_;
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
