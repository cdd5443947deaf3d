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
///
/// Lanes. The PCG kernels also run on K vectors at once, stored
/// interleaved: row i of lane j sits at i*K + j. Every lane performs
/// exactly the operation sequence of the K = 1 kernel on its own vector,
/// so lane j of a K-lane call is bit-identical to a K = 1 call on lane j
/// alone. A K-lane sweep reads the matrix once for K right-hand sides and
/// gives the CPU K independent add chains instead of one.
namespace gnrfet::linalg::kernels {

/// Right-hand sides a lane-blocked PCG advances together. Chosen by wall
/// clock on the N = 12 capacitance build (EXPERIMENTS.md): 4 beat 8 at 1
/// and 4 threads. The lane kernels below are instantiated for K = 1 and
/// K = kLanes.
constexpr size_t kLanes = 4;

/// out[j] = sum_i a[i*K + j] * b[i*K + j] over n rows, blocked pairwise
/// per lane (the recursion shape depends only on n).
template <size_t K>
void dot(const double* a, const double* b, size_t n, double* out);

/// Inner product a . b over n entries, blocked pairwise (K = 1).
inline double dot(const double* a, const double* b, size_t n) {
  double s;
  dot<1>(a, b, n, &s);
  return s;
}

inline double dot(const std::vector<double>& a, const std::vector<double>& b) {
  return dot(a.data(), b.data(), a.size());
}

/// y[i*K + j] += alpha[j] * x[i*K + j] over n rows (no reduction).
template <size_t K>
void axpy(const double* alpha, const double* x, double* y, size_t n);

/// p[i*K + j] = z[i*K + j] + beta[j] * p[i*K + j] (the PCG direction update).
template <size_t K>
void xpby(const double* z, const double* beta, double* p, size_t n);

/// y += alpha * x (element-wise; no reduction, bit-identical in any order).
inline void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  axpy<1>(&alpha, x.data(), y.data(), x.size());
}

/// p = z + beta * p (the PCG direction update).
inline void xpby(const std::vector<double>& z, double beta, std::vector<double>& p) {
  xpby<1>(z.data(), &beta, p.data(), z.size());
}

/// Row-segment accumulator of the CSR multiply and the triangular sweeps:
/// s[j] = sum_k values[k] * x[col[k]*K + j] for k in [begin, end), left to
/// right. Rows of the Poisson stencil hold at most 7 entries, so this
/// always runs sequentially, which IS the documented order of the
/// multiply and the preconditioner sweeps.
template <size_t K, class Index>
inline void gather_dot(const double* values, const Index* col, size_t begin, size_t end,
                       const double* x, double* s) {
  double acc[K] = {};  // local, so the sums stay in registers even when s aliases x
  for (size_t k = begin; k < end; ++k) {
    const double v = values[k];
    const double* xk = x + static_cast<size_t>(col[k]) * K;
    for (size_t j = 0; j < K; ++j) acc[j] += v * xk[j];
  }
  for (size_t j = 0; j < K; ++j) s[j] = acc[j];
}

/// The K = 1 row-segment sum.
template <class Index>
inline double gather_dot(const double* values, const Index* col, size_t begin, size_t end,
                         const double* x) {
  double s;
  gather_dot<1>(values, col, begin, end, x, &s);
  return s;
}

/// y = A x for a dense row-major n x n matrix A. Each row is one dot
/// product over four interleaved accumulators (column j feeds accumulator
/// j % 4; the tail past the last multiple of four is added sequentially),
/// combined as (a0 + a1) + (a2 + a3) before the tail: a fixed order that
/// streams A once per call and keeps the row dot off one serial add chain.
///
/// Rows run in blocks of eight that share each load of x; leftover rows
/// run one at a time. Blocking changes which rows are in flight together,
/// never the operations of a row, so every y[i] has the bits of the
/// one-row loop (the test oracle `dense_matvec_one_row`). One row at a
/// time keeps only two dependent SSE2 add chains busy and waits on their
/// latency; a block of eight keeps sixteen in flight, enough to fill the
/// adders without a wider instruction set.
void dense_matvec(const double* a, size_t n, const double* x, double* y);

}  // namespace gnrfet::linalg::kernels
