#include "linalg/kernels.hpp"

namespace gnrfet::linalg::kernels {

namespace {

constexpr size_t kBlock = 32;

double dot_sequential(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

/// Pairwise over [0, n): sequential below one block, recursive halving
/// above. The split point is the largest multiple of kBlock at or above
/// n/2, so the recursion shape depends only on n — never on the data.
double dot_pairwise(const double* a, const double* b, size_t n) {
  if (n <= kBlock) return dot_sequential(a, b, n);
  size_t half = (n / 2 + kBlock - 1) / kBlock * kBlock;
  if (half >= n) half = n - kBlock;
  return dot_pairwise(a, b, half) + dot_pairwise(a + half, b + half, n - half);
}

}  // namespace

double dot(const double* a, const double* b, size_t n) { return dot_pairwise(a, b, n); }

void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void xpby(const std::vector<double>& z, double beta, std::vector<double>& p) {
  for (size_t i = 0; i < z.size(); ++i) p[i] = z[i] + beta * p[i];
}

double gather_dot(const double* values, const size_t* col, size_t begin, size_t end,
                  const double* x) {
  double s = 0.0;
  for (size_t k = begin; k < end; ++k) s += values[k] * x[col[k]];
  return s;
}

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
