#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "poisson/assembly.hpp"
#include "poisson/grid.hpp"
#include "poisson/nonlinear.hpp"

/// Capacitance-matrix form of the nonlinear Poisson solve (Buzbee, Dorr,
/// George & Golub, SIAM J. Numer. Anal. 8 (1971) 722).
///
/// Inside the Gummel loop the mobile charge sits only on S, the free nodes
/// that some cloud-in-cell stencil of the ribbon touches with a nonzero
/// weight (496 of 20,460 free nodes for the N = 12 device). Every other
/// node obeys the fixed linear Laplacian A, so on S the potential is
/// exactly
///
///   phi_S = phi0_S(V) + G q_S(phi_S),        G = (A^-1)_SS,
///
/// where phi0_S(V) = sum_e V_e r_e + r_fixed holds the responses of S to a
/// unit voltage on each electrode and to the fixed (impurity) charge.
///
/// The work splits in two. CapacitanceMatrix, the per-geometry part, holds
/// S, G and the electrode responses: they depend only on the grid, the
/// electrodes and the stencils, so every device variant of one geometry
/// (any oxide impurities) can share one immutable instance. Its
/// constructor builds G and the responses with one IC(0)-PCG solve per
/// column (relative tolerance 1e-10); every column must converge. Columns
/// run in fixed blocks of linalg::kernels::kLanes, each block one
/// linalg::pcg_solve_lanes call on the one IC(0) factor, fanned out over
/// par::parallel_for_chunks. Each lane repeats a one-column pcg_solve bit
/// for bit. G is symmetrised afterwards, so it is exactly symmetric. Each
/// column starts from zero, so G is bit-identical for any thread count.
///
/// CapacitanceSolver, the per-variant part, adds r_fixed: one more
/// pcg_solve on an IC(0) factor of A, bit-identical to the column the fixed
/// charge would take in the block build. The factor is made again for it
/// (a few ms) rather than kept beside G, where it would double the memory
/// each shared geometry holds for the life of the process.
///
/// solve_nonlinear() runs the damped Newton loop of
/// PoissonSolver::solve_nonlinear — the same exponential charge
/// linearisation, kMaxNewtonStep_V clamp and growth rule, tolerance and
/// residual contracts (poisson/newton.hpp) — on the ns unknowns of S:
///
///   F(phi) = phi - phi0 - G q(phi),   (I + G D) delta = -F,   D = -dq/dphi >= 0.
///
/// Each step solves the symmetric form (I + D^1/2 G D^1/2) z = -D^1/2 F by
/// plain CG and sets delta = -F - G D^1/2 z. The step is inexact Newton
/// (Eisenstat & Walker, SIAM J. Sci. Comput. 17 (1996) 16): the Newton
/// residual of delta is (I + G D) delta + F = G D^1/2 r for the CG residual
/// r, so CG stops as soon as
///
///   ||G||_1 ||D^1/2 r||_2 <= max(eta_k ||F_k||_2, kLinearResidualFloor_V),
///
/// which bounds ||(I + G D) delta + F||_2 (G is symmetric, so
/// ||G||_2 <= ||G||_1), or at the relative 1e-9 of the full-grid solve,
/// whichever comes first. eta_0 = kForcingMax and eta_k = min(kForcingMax,
/// kForcingGamma (||F_k||_2 / ||F_{k-1}||_2)^2). A forcing term on ||r||
/// alone would not bound the Newton residual: G D^1/2 amplifies r wherever
/// the exponential charge saturates and D is huge. Up to the build and
/// Newton tolerances this is the full-grid Newton restricted to S;
/// PoissonSolver::solve_nonlinear (tests/support/poisson_oracles.hpp)
/// survives as its test oracle.
///
/// Both objects are immutable after construction and solve_nonlinear()
/// keeps its scratch in per-call locals, so one solver serves concurrent
/// bias points and one CapacitanceMatrix serves concurrent solvers.
namespace gnrfet::poisson {

/// The forcing sequence of the reduced Newton's linear solves: the first
/// step's forcing term and the cap of every later one.
inline constexpr double kForcingMax = 0.1;
/// gamma of Eisenstat-Walker choice 2 (its alpha is 2).
inline constexpr double kForcingGamma = 0.9;
/// No linear solve must push the Newton residual below this [V]: a small
/// fraction of the Newton stop tolerance.
inline constexpr double kLinearResidualFloor_V = 5e-3 * kNewtonTolerance_V;

struct ReducedResult {
  std::vector<double> phi;  ///< potential on S [V], in nodes() order
  bool converged = false;   ///< false: ran out of Newton iterations (counted
                            ///< in metrics as poisson_newton_unconverged)
  int iterations = 0;
  double last_update_V = 0.0;
};

/// The per-geometry part: S, G and the electrode responses.
class CapacitanceMatrix {
 public:
  /// `stencils` define S. Throws std::runtime_error if a column's PCG solve
  /// does not converge.
  CapacitanceMatrix(const Assembly& assembly, const std::vector<Domain::CicStencil>& stencils);

  /// ns, the number of charge nodes.
  size_t size() const { return nodes_.size(); }

  /// Grid node of each S index, ascending.
  const std::vector<size_t>& nodes() const { return nodes_; }

  /// S index of a grid node, or SIZE_MAX when the node is not in S.
  size_t index_of(size_t node) const;

  /// G = (A^-1)_SS, row-major ns x ns [V/e].
  const std::vector<double>& green() const { return green_; }

  /// ||G||_1, the largest absolute row sum of G; it bounds ||G||_2, since G
  /// is symmetric.
  double green_norm1() const { return green_norm1_; }

  size_t num_electrodes() const { return num_electrodes_; }

  /// Row e: the response of S to V_e = 1 V with no charge [V].
  const std::vector<double>& electrode_response() const { return electrode_response_; }

  /// Free nodes of the assembly the matrix was built from.
  size_t num_free() const { return num_free_; }

 private:
  size_t num_free_;
  size_t num_electrodes_;
  std::vector<size_t> nodes_;
  std::vector<double> green_;
  double green_norm1_ = 0.0;
  std::vector<double> electrode_response_;
};

class CapacitanceSolver {
 public:
  /// `matrix` is the shared per-geometry part, built from an assembly of
  /// the same geometry as `assembly` (std::invalid_argument when the sizes
  /// differ); `rho_fixed_e` is the fixed charge on the full grid (units of
  /// e). Throws std::runtime_error if the fixed-charge solve does not
  /// converge.
  CapacitanceSolver(std::shared_ptr<const CapacitanceMatrix> matrix, const Assembly& assembly,
                    const std::vector<double>& rho_fixed_e);

  /// ns, the number of charge nodes.
  size_t size() const { return matrix_->size(); }

  /// Grid node of each S index, ascending.
  // Test seam: tests map S back to the grid; the solver itself works on S.
  const std::vector<size_t>& nodes() const { return matrix_->nodes(); }

  /// S index of a grid node, or SIZE_MAX when the node is not in S.
  size_t index_of(size_t node) const { return matrix_->index_of(node); }

  /// G = (A^-1)_SS, row-major ns x ns [V/e].
  // Test seam: G's bit pins and symmetry checks; solves read the matrix directly.
  const std::vector<double>& green() const { return matrix_->green(); }

  /// phi0_S(V): the potential on S with no mobile charge [V].
  std::vector<double> base_potential(const std::vector<double>& electrode_voltages) const;

  /// Solve phi = phi0(V) + G q(phi) on S. `n0_e`/`p0_e` are the electron
  /// and hole populations on S (units of e), `phi_ref` the potential they
  /// were computed at and `phi_init` the initial guess, all in nodes()
  /// order.
  ReducedResult solve_nonlinear(const std::vector<double>& electrode_voltages,
                                const std::vector<double>& n0_e,
                                const std::vector<double>& p0_e,
                                const std::vector<double>& phi_ref,
                                const std::vector<double>& phi_init,
                                const NonlinearOptions& opts = {}) const;

 private:
  std::shared_ptr<const CapacitanceMatrix> matrix_;
  std::vector<double> fixed_response_;  ///< response of S to the fixed charge
};

}  // namespace gnrfet::poisson
