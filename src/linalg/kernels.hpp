#pragma once

#include <cstddef>
#include <vector>

/// Shared scalar kernels for the iterative-solver stack (PCG and the
/// preconditioner sweeps). Every reduction here runs in ONE documented,
/// input-independent order, so results are bit-reproducible run-to-run
/// and thread-count-to-thread-count (each solve runs on a single thread;
/// parallelism is across solves).
///
/// Dot products use blocked pairwise (tree) summation: the vector is cut
/// into fixed 32-element blocks accumulated left-to-right, and block sums
/// are combined by recursive halving. Rounding error grows O(log n)
/// instead of O(n), which matters for the 1e-9 relative tolerances of the
/// inner Newton solves on grids with ~1e5 nodes.
namespace gnrfet::linalg::kernels {

/// Inner product a . b over n entries, blocked pairwise.
double dot(const double* a, const double* b, size_t n);

inline double dot(const std::vector<double>& a, const std::vector<double>& b) {
  return dot(a.data(), b.data(), a.size());
}

/// y += alpha * x (element-wise; no reduction, bit-identical in any order).
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);

/// p = z + beta * p (the PCG direction update).
void xpby(const std::vector<double>& z, double beta, std::vector<double>& p);

/// Row-segment accumulator for sparse triangular sweeps: returns
/// sum_k values[k] * x[col[k]] for k in [begin, end). Rows of the Poisson
/// stencil hold at most 7 entries, so this always runs sequentially —
/// which IS the documented order for the preconditioner sweeps.
double gather_dot(const double* values, const size_t* col, size_t begin, size_t end,
                  const double* x);

/// y = A x for a dense row-major n x n matrix A. Each row is one dot
/// product over four interleaved accumulators (column j feeds accumulator
/// j % 4; the tail past the last multiple of four is added sequentially),
/// combined as (a0 + a1) + (a2 + a3) before the tail: a fixed order that
/// streams A once per call and keeps the row dot off one serial add chain.
void dense_matvec(const double* a, size_t n, const double* x, double* y);

}  // namespace gnrfet::linalg::kernels
