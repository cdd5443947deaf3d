#include "linalg/lu.hpp"

#include <cmath>
#include <stdexcept>

namespace gnrfet::linalg {

namespace {
constexpr double kPivotFloor = 1e-300;

template <typename T>
void factor_in_place(Matrix<T>& a, std::vector<size_t>& perm) {
  const size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("LU: matrix must be square");
  perm.resize(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t k = 0; k < n; ++k) {
    size_t piv = k;
    double best = std::abs(a(k, k));
    for (size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best < kPivotFloor) throw std::runtime_error("LU: singular matrix");
    if (piv != k) {
      for (size_t j = 0; j < n; ++j) std::swap(a(k, j), a(piv, j));
      std::swap(perm[k], perm[piv]);
    }
    const T inv_piv = T{1} / a(k, k);
    for (size_t i = k + 1; i < n; ++i) {
      const T m = a(i, k) * inv_piv;
      a(i, k) = m;
      if (m == T{}) continue;
      for (size_t j = k + 1; j < n; ++j) a(i, j) -= m * a(k, j);
    }
  }
}
}  // namespace

template <typename T>
LU<T>::LU(Matrix<T> a) : lu_(std::move(a)) {
  factor_in_place(lu_, perm_);
}

template <typename T>
void LU<T>::factor(const Matrix<T>& a) {
  lu_ = a;
  factor_in_place(lu_, perm_);
}

template <typename T>
void LU<T>::solve_into(const std::vector<T>& b, std::vector<T>& x) const {
  const size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LU::solve: size mismatch");
  x.resize(n);
  for (size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward substitution (unit lower triangle).
  for (size_t i = 1; i < n; ++i) {
    T s = x[i];
    for (size_t j = 0; j < i; ++j) s -= lu_(i, j) * x[j];
    x[i] = s;
  }
  // Back substitution.
  for (size_t ii = n; ii-- > 0;) {
    T s = x[ii];
    for (size_t j = ii + 1; j < n; ++j) s -= lu_(ii, j) * x[j];
    x[ii] = s / lu_(ii, ii);
  }
}

template <typename T>
std::vector<T> LU<T>::solve(const std::vector<T>& b) const {
  std::vector<T> x;
  solve_into(b, x);
  return x;
}

template <typename T>
void LU<T>::solve_into(const Matrix<T>& b, Matrix<T>& x) const {
  const size_t n = lu_.rows();
  if (b.rows() != n) throw std::invalid_argument("LU::solve_into: shape mismatch");
  x.resize_zero(b.rows(), b.cols());
  for (size_t j = 0; j < b.cols(); ++j) {
    for (size_t i = 0; i < n; ++i) x(i, j) = b(perm_[i], j);
    // Forward substitution (unit lower triangle), in place on column j.
    for (size_t i = 1; i < n; ++i) {
      T s = x(i, j);
      for (size_t k = 0; k < i; ++k) s -= lu_(i, k) * x(k, j);
      x(i, j) = s;
    }
    // Back substitution.
    for (size_t ii = n; ii-- > 0;) {
      T s = x(ii, j);
      for (size_t k = ii + 1; k < n; ++k) s -= lu_(ii, k) * x(k, j);
      x(ii, j) = s / lu_(ii, ii);
    }
  }
}

template <typename T>
Matrix<T> LU<T>::solve(const Matrix<T>& b) const {
  Matrix<T> x;
  solve_into(b, x);
  return x;
}

template class LU<double>;
template class LU<cplx>;

CMatrix inverse(const CMatrix& a) {
  const LU lu(a);
  return lu.solve(CMatrix::identity(a.rows()));
}

}  // namespace gnrfet::linalg
