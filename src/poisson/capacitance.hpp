#pragma once

#include <cstddef>
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
/// The constructor builds G and the responses with one IC(0)-PCG solve per
/// column (relative tolerance 1e-10); every column must converge. Columns
/// run in fixed blocks of linalg::kernels::kLanes, each block one
/// linalg::pcg_solve_lanes call on one shared IC(0) factor, fanned out over
/// par::parallel_for_chunks. Each lane repeats a one-column pcg_solve bit
/// for bit. G is symmetrised afterwards, so it is exactly symmetric. Each
/// column starts from zero, so G is bit-identical for any thread count.
///
/// solve_nonlinear() runs the damped Newton loop of
/// PoissonSolver::solve_nonlinear — the same exponential charge
/// linearisation, max_step_V clamp and growth rule, tolerance and residual
/// contracts (poisson/newton.hpp) — on the ns unknowns of S:
///
///   F(phi) = phi - phi0 - G q(phi),   (I + G D) delta = -F,   D = -dq/dphi >= 0.
///
/// Each step solves the symmetric form (I + D^1/2 G D^1/2) z = -D^1/2 F by
/// plain CG and sets delta = -F - G D^1/2 z. Up to the build tolerance this
/// is the full-grid Newton restricted to S; PoissonSolver::solve_nonlinear
/// survives as its test and bench oracle.
///
/// The object is immutable after construction and solve_nonlinear() keeps
/// its scratch in per-call locals, so one solver serves concurrent bias
/// points.
namespace gnrfet::poisson {

struct ReducedResult {
  std::vector<double> phi;  ///< potential on S [V], in nodes() order
  bool converged = false;   ///< false: ran out of Newton iterations (counted
                            ///< in metrics as poisson_newton_unconverged)
  int iterations = 0;
  double last_update_V = 0.0;
};

class CapacitanceSolver {
 public:
  /// `stencils` define S; `rho_fixed_e` is the fixed charge on the full
  /// grid (units of e). Throws std::runtime_error if a column's PCG solve
  /// does not converge.
  CapacitanceSolver(const Assembly& assembly, const std::vector<Domain::CicStencil>& stencils,
                    const std::vector<double>& rho_fixed_e);

  /// ns, the number of charge nodes.
  size_t size() const { return nodes_.size(); }

  /// Grid node of each S index, ascending.
  const std::vector<size_t>& nodes() const { return nodes_; }

  /// S index of a grid node, or SIZE_MAX when the node is not in S.
  size_t index_of(size_t node) const;

  /// G = (A^-1)_SS, row-major ns x ns [V/e].
  const std::vector<double>& green() const { return green_; }

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
  size_t num_electrodes_;
  std::vector<size_t> nodes_;
  std::vector<double> green_;
  std::vector<double> electrode_response_;  ///< row e: response of S to V_e = 1 V
  std::vector<double> fixed_response_;      ///< response of S to the fixed charge
};

}  // namespace gnrfet::poisson
