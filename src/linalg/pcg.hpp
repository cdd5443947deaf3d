#pragma once

#include <array>

#include "linalg/kernels.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sparse.hpp"

/// Preconditioned conjugate gradient for the (symmetric positive definite)
/// Poisson systems. The caller passes a factored preconditioner (IC(0) in
/// production, see linalg/preconditioner.hpp); dot products are
/// blocked-pairwise sums (linalg/kernels.hpp). Every solve runs in a
/// caller-owned PcgWorkspace, so a caller that solves repeatedly allocates
/// the iteration vectors once.
///
/// One iteration body serves both entry points: pcg_solve is its
/// one-lane instance, and pcg_solve_lanes advances kernels::kLanes
/// right-hand sides in lockstep, each lane bit-identical to a pcg_solve
/// of that right-hand side from a zero start.
namespace gnrfet::linalg {

/// Reusable iteration vectors. Contents are scratch: every solve fully
/// overwrites them, and reusing one workspace across solves is
/// bit-identical to using a fresh one.
struct PcgWorkspace {
  std::vector<double> r, z, p, ap;
  std::vector<double> x;  ///< pcg_solve_lanes' iterate on its tracked rows
};

struct PcgOptions {
  double rel_tolerance = 1e-10;
};

struct PcgResult {
  bool converged = false;
  size_t iterations = 0;
  double residual_norm = 0.0;
};

/// Solves A x = b in place; `x` provides the initial guess. `precond`
/// must be factored for `a`. The capacitance matrix's fixed-charge column
/// runs here, and the tests pin each lane of pcg_solve_lanes to it.
PcgResult pcg_solve(const SparseMatrix& a, const std::vector<double>& b,
                    std::vector<double>& x, const Preconditioner& precond, PcgWorkspace& ws,
                    const PcgOptions& opts = {});

/// Solves A x_j = b_j from x_j = 0 for the first `lanes` (1..kLanes) of
/// kernels::kLanes right-hand sides stored interleaved in `b` (row i of
/// lane j at i*kLanes + j); the other lanes are padding and are neither
/// solved nor reported. Each lane checks convergence itself, at the
/// tolerances of `opts`, and at that iteration writes its solution on
/// `rows` into `x_rows` (row rows[s] of lane j at s*kLanes + j); the
/// iterate is tracked on those rows only. A lane that does not converge
/// leaves its part of `x_rows` unspecified. One trace span and one
/// iteration-count record per lane.
std::array<PcgResult, kernels::kLanes> pcg_solve_lanes(const SparseMatrix& a,
                                                       const std::vector<double>& b,
                                                       size_t lanes,
                                                       const std::vector<size_t>& rows,
                                                       std::vector<double>& x_rows,
                                                       const Preconditioner& precond,
                                                       PcgWorkspace& ws,
                                                       const PcgOptions& opts = {});

}  // namespace gnrfet::linalg
