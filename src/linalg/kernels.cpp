#include "linalg/kernels.hpp"

namespace gnrfet::linalg::kernels {

namespace {

constexpr size_t kBlock = 32;

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
  for (size_t i = 0; i < n; ++i) {
    const double* row = a + i * n;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      a0 += row[j] * x[j];
      a1 += row[j + 1] * x[j + 1];
      a2 += row[j + 2] * x[j + 2];
      a3 += row[j + 3] * x[j + 3];
    }
    double s = (a0 + a1) + (a2 + a3);
    for (; j < n; ++j) s += row[j] * x[j];
    y[i] = s;
  }
}

}  // namespace gnrfet::linalg::kernels
