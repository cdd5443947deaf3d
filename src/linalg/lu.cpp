#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

namespace gnrfet::linalg {

namespace {
constexpr double kPivotFloor = 1e-300;

/// Returns the number of row-entry updates. The real (MNA) factor updates
/// only the nonzero columns of each pivot row: a zero a(k, j) would
/// subtract m * 0 and leave a(i, j) as it is. The complex RGF blocks are
/// dense and keep the plain row loop.
template <typename T>
size_t factor_in_place(Matrix<T>& a, std::vector<size_t>& perm, std::vector<size_t>& cols) {
  const size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("LU: matrix must be square");
  perm.resize(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  size_t updates = 0;
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
    if constexpr (std::is_same_v<T, double>) {
      cols.clear();
      for (size_t j = k + 1; j < n; ++j) {
        if (a(k, j) != 0.0) cols.push_back(j);
      }
      for (size_t i = k + 1; i < n; ++i) {
        const double m = a(i, k) * inv_piv;
        a(i, k) = m;
        if (m == 0.0) continue;
        for (const size_t j : cols) a(i, j) -= m * a(k, j);
        updates += cols.size();
      }
    } else {
      for (size_t i = k + 1; i < n; ++i) {
        const T m = a(i, k) * inv_piv;
        a(i, k) = m;
        if (m == T{}) continue;
        for (size_t j = k + 1; j < n; ++j) a(i, j) -= m * a(k, j);
        updates += n - k - 1;
      }
    }
  }
  return updates;
}
}  // namespace

template <typename T>
LU<T>::LU(Matrix<T> a) : lu_(std::move(a)) {
  elimination_updates_ = factor_in_place(lu_, perm_, pivot_row_cols_);
}

template <typename T>
void LU<T>::set_order(const std::vector<size_t>& order) {
  const size_t n = order.size();
  std::vector<char> seen(n, 0);
  bool identity = true;
  for (size_t i = 0; i < n; ++i) {
    if (order[i] >= n || seen[order[i]]) {
      throw std::invalid_argument("LU::set_order: not a permutation");
    }
    seen[order[i]] = 1;
    identity = identity && order[i] == i;
  }
  order_.clear();
  cycle_starts_.clear();
  if (identity) return;
  order_ = order;
  // The first index of each cycle longer than one, for the in-place scatter.
  std::fill(seen.begin(), seen.end(), 0);
  for (size_t s = 0; s < n; ++s) {
    if (seen[s] || order_[s] == s) continue;
    cycle_starts_.push_back(s);
    for (size_t i = s; !seen[i]; i = order_[i]) seen[i] = 1;
  }
}

template <typename T>
void LU<T>::factor(const Matrix<T>& a) {
  const size_t n = a.rows();
  if (order_.empty()) {
    lu_ = a;
  } else {
    if (a.cols() != n || order_.size() != n) {
      throw std::invalid_argument("LU::factor: matrix does not match the elimination order");
    }
    if (lu_.rows() != n || lu_.cols() != n) lu_.resize_zero(n, n);
    for (size_t i = 0; i < n; ++i) {
      const T* row = &a(order_[i], 0);
      for (size_t j = 0; j < n; ++j) lu_(i, j) = row[order_[j]];
    }
  }
  elimination_updates_ = factor_in_place(lu_, perm_, pivot_row_cols_);
  // Row i of the factor is row order_[perm_[i]] of A.
  if (!order_.empty()) {
    for (size_t& p : perm_) p = order_[p];
  }
}

template <typename T>
template <typename At>
void LU<T>::scatter_through_order(At&& at) const {
  for (const size_t s : cycle_starts_) {
    T carry = at(s);
    size_t i = s;
    do {
      i = order_[i];
      std::swap(carry, at(i));
    } while (i != s);
  }
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
  scatter_through_order([&x](size_t i) -> T& { return x[i]; });
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
    scatter_through_order([&x, j](size_t i) -> T& { return x(i, j); });
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

std::vector<size_t> minimum_degree_order(const DMatrix& a) {
  const size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("minimum_degree_order: matrix must be square");
  // adj[i * n + j]: i and j are coupled in the graph of the remaining matrix.
  std::vector<char> adj(n * n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j && a(i, j) != 0.0) adj[i * n + j] = adj[j * n + i] = 1;
    }
  }
  std::vector<char> eliminated(n, 0);
  std::vector<size_t> order, neighbours;
  order.reserve(n);
  while (order.size() < n) {
    size_t best = 0, best_degree = n;
    for (size_t v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      size_t degree = 0;
      for (size_t u = 0; u < n; ++u) degree += !eliminated[u] && adj[v * n + u];
      if (degree < best_degree) {
        best = v;
        best_degree = degree;
      }
    }
    eliminated[best] = 1;
    order.push_back(best);
    neighbours.clear();
    for (size_t u = 0; u < n; ++u) {
      if (!eliminated[u] && adj[best * n + u]) neighbours.push_back(u);
    }
    for (const size_t u : neighbours) {
      for (const size_t w : neighbours) {
        if (u != w) adj[u * n + w] = 1;
      }
    }
  }
  return order;
}

}  // namespace gnrfet::linalg
