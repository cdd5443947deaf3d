#pragma once

#include "linalg/preconditioner.hpp"
#include "linalg/sparse.hpp"

/// Preconditioned conjugate gradient for the (symmetric positive definite)
/// Poisson systems. The preconditioner is injectable (IC(0) in production,
/// Jacobi as the null-preconditioner fallback — see
/// linalg/preconditioner.hpp); dot products are blocked-pairwise sums
/// (linalg/kernels.hpp). Callers on a hot loop pass a PcgWorkspace so the
/// four iteration vectors are allocated once and reused across solves.
namespace gnrfet::linalg {

/// Reusable iteration vectors. Contents are scratch: every solve fully
/// overwrites them, and reusing one workspace across solves is
/// bit-identical to using a fresh one.
struct PcgWorkspace {
  std::vector<double> r, z, p, ap;
};

struct PcgOptions {
  double rel_tolerance = 1e-10;
  double abs_tolerance = 1e-14;
  size_t max_iterations = 20000;
  /// Preconditioner to apply (must be factored for the system matrix).
  /// Null selects an internal per-call Jacobi.
  const Preconditioner* preconditioner = nullptr;
  /// Optional reusable vectors; null falls back to per-call allocation.
  PcgWorkspace* workspace = nullptr;
};

struct PcgResult {
  bool converged = false;
  size_t iterations = 0;
  double residual_norm = 0.0;
};

/// Solves A x = b in place; `x` provides the initial guess.
PcgResult pcg_solve(const SparseMatrix& a, const std::vector<double>& b,
                    std::vector<double>& x, const PcgOptions& opts = {});

}  // namespace gnrfet::linalg
