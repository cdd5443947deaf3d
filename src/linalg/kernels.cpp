#include "linalg/kernels.hpp"

#include <cstring>

namespace gnrfet::linalg::kernels {

namespace {

constexpr size_t kBlock = 32;

/// Rows of one dense_matvec block: 16 accumulator chains in flight.
constexpr size_t kMatvecRows = 8;

template <size_t K>
void dot_sequential(const double* a, const double* b, size_t n, double* out) {
  double s[K] = {};
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < K; ++j) s[j] += a[i * K + j] * b[i * K + j];
  }
  for (size_t j = 0; j < K; ++j) out[j] = s[j];
}

/// Pairwise over rows [0, n): sequential below one block, recursive
/// halving above. The split point is the largest multiple of kBlock at or
/// above n/2, so the recursion shape depends only on n — never on the data
/// or the lane count.
template <size_t K>
void dot_pairwise(const double* a, const double* b, size_t n, double* out) {
  if (n <= kBlock) {
    dot_sequential<K>(a, b, n, out);
    return;
  }
  size_t half = (n / 2 + kBlock - 1) / kBlock * kBlock;
  if (half >= n) half = n - kBlock;
  double left[K], right[K];
  dot_pairwise<K>(a, b, half, left);
  dot_pairwise<K>(a + half * K, b + half * K, n - half, right);
  for (size_t j = 0; j < K; ++j) out[j] = left[j] + right[j];
}

/// Two doubles in one SSE register (GCC/Clang vector extension). Element
/// k of a row's `lo` is its accumulator a_k and element k of `hi` is
/// a_{2+k}, so one vector multiply-add performs exactly the two scalar
/// multiply-adds of the documented row order.
typedef double Pair __attribute__((vector_size(16)));

inline Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);  // unaligned: a row starts at i*n doubles
  return v;
}

/// Rows [0, R) of the row-major n-column block `a` times x, each row in
/// the order of dense_matvec's contract. The R rows share each load of x,
/// and their 2R accumulators are independent add chains.
template <size_t R>
void matvec_rows(const double* a, size_t n, const double* x, double* y) {
  Pair lo[R], hi[R];
#pragma GCC unroll 8
  for (size_t r = 0; r < R; ++r) lo[r] = hi[r] = Pair{0.0, 0.0};
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const Pair x01 = load_pair(x + j);
    const Pair x23 = load_pair(x + j + 2);
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) {
      lo[r] += load_pair(a + r * n + j) * x01;
      hi[r] += load_pair(a + r * n + j + 2) * x23;
    }
  }
#pragma GCC unroll 8
  for (size_t r = 0; r < R; ++r) {
    double s = (lo[r][0] + lo[r][1]) + (hi[r][0] + hi[r][1]);
    for (size_t k = j; k < n; ++k) s += a[r * n + k] * x[k];
    y[r] = s;
  }
}

}  // namespace

template <size_t K>
void dot(const double* a, const double* b, size_t n, double* out) {
  dot_pairwise<K>(a, b, n, out);
}

// The coefficients are copied into locals so that stores into y / p cannot
// force them to be reloaded, which would also block vectorization.
template <size_t K>
void axpy(const double* alpha, const double* x, double* y, size_t n) {
  double a[K];
  for (size_t j = 0; j < K; ++j) a[j] = alpha[j];
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < K; ++j) y[i * K + j] += a[j] * x[i * K + j];
  }
}

template <size_t K>
void xpby(const double* z, const double* beta, double* p, size_t n) {
  double b[K];
  for (size_t j = 0; j < K; ++j) b[j] = beta[j];
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < K; ++j) p[i * K + j] = z[i * K + j] + b[j] * p[i * K + j];
  }
}

template void dot<1>(const double*, const double*, size_t, double*);
template void dot<kLanes>(const double*, const double*, size_t, double*);
template void axpy<1>(const double*, const double*, double*, size_t);
template void axpy<kLanes>(const double*, const double*, double*, size_t);
template void xpby<1>(const double*, const double*, double*, size_t);
template void xpby<kLanes>(const double*, const double*, double*, size_t);

void dense_matvec(const double* a, size_t n, const double* x, double* y) {
  size_t i = 0;
  for (; i + kMatvecRows <= n; i += kMatvecRows) matvec_rows<kMatvecRows>(a + i * n, n, x, y + i);
  for (; i < n; ++i) matvec_rows<1>(a + i * n, n, x, y + i);
}

}  // namespace gnrfet::linalg::kernels
