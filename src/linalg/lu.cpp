#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "common/metrics.hpp"

namespace gnrfet::linalg {

namespace {
constexpr double kPivotFloor = 1e-300;

/// A pivot magnitude below the floor is a singular matrix; a NaN one is a
/// corrupted input, which no later step can recover from.
void check_pivot(double best) {
  if (best >= kPivotFloor) return;
  if (std::isnan(best)) throw std::invalid_argument("LU: non-finite pivot");
  throw std::runtime_error("LU: singular matrix");
}

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
    check_pivot(best);
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
void LU<T>::factor(const Matrix<T>& a) {
  lu_ = a;
  elimination_updates_ = factor_in_place(lu_, perm_, pivot_row_cols_);
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

template class LU<double>;
template class LU<cplx>;

void ReplayLU::factor(const DMatrix& a, const std::vector<size_t>& pattern) {
  if (a_col_.empty()) a_col_ = minimum_degree_order(a);
  metrics::add(metrics::Counter::kMnaFactorizations);
  if (pattern.size() != gather_src_.size() || !refactor(a)) {
    metrics::add(metrics::Counter::kMnaSymbolicAnalyses);
    analyse(a, pattern);
  }
  metrics::add(metrics::Counter::kMnaEliminationUpdates, elimination_updates_);
}

void ReplayLU::analyse(const DMatrix& a, const std::vector<size_t>& pattern) {
  analysed_ = false;
  const size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("LU: matrix must be square");
  if (a_col_.size() != n) {
    throw std::invalid_argument("ReplayLU::analyse: matrix does not match the elimination order");
  }
  // The dense factor of P^T A P, (P^T A P)(i, j) = A(a_col_[i], a_col_[j]),
  // copied straight into the analysis storage (allocation reused when
  // shapes repeat) and factored there.
  if (dense_.rows() != n || dense_.cols() != n) dense_.resize_zero(n, n);
  for (size_t i = 0; i < n; ++i) {
    const double* row = &a(a_col_[i], 0);
    for (size_t j = 0; j < n; ++j) dense_(i, j) = row[a_col_[j]];
  }
  elimination_updates_ = factor_in_place(dense_, perm_, cols_);
  n_ = n;
  a_row_.resize(n);
  for (size_t i = 0; i < n; ++i) a_row_[i] = a_col_[perm_[i]];
  // Ordered index of each row/column of A, and the factor row each ordered
  // row ends in.
  std::vector<size_t> ordered(n), final_row(n);
  for (size_t j = 0; j < n; ++j) ordered[a_col_[j]] = j;
  for (size_t i = 0; i < n; ++i) final_row[ordered[a_row_[i]]] = i;

  // Symbolic elimination of the pattern in the dense loop's row positions,
  // with its row swaps: at step k the row that ends as factor row k moves
  // to position k.
  std::vector<char> s(n * n, 0);
  for (const size_t idx : pattern) {
    if (idx >= n * n) throw std::invalid_argument("ReplayLU::analyse: pattern entry out of range");
    s[ordered[idx / n] * n + ordered[idx % n]] = 1;
  }
  std::vector<size_t> row_at(n), pos_of(n), cand_rows;
  for (size_t p = 0; p < n; ++p) row_at[p] = pos_of[p] = p;
  cand_ptr_.assign(n + 1, 0);
  cand_at_k_.assign(n, 0);
  for (size_t k = 0; k < n; ++k) {
    cand_ptr_[k] = cand_rows.size();
    cand_at_k_[k] = s[k * n + k];
    for (size_t p = k; p < n; ++p) {
      if (s[p * n + k]) cand_rows.push_back(row_at[p]);
    }
    const size_t p = pos_of[ordered[a_row_[k]]];
    if (p != k) {
      std::swap_ranges(&s[p * n], &s[p * n] + n, &s[k * n]);
      std::swap(row_at[p], row_at[k]);
      pos_of[row_at[p]] = p;
      pos_of[row_at[k]] = k;
    }
    for (size_t q = k + 1; q < n; ++q) {
      if (!s[q * n + k]) continue;
      for (size_t j = k + 1; j < n; ++j) s[q * n + j] |= s[k * n + j];
    }
  }
  cand_ptr_[n] = cand_rows.size();

  // Factor pattern by rows. With no NaN pivot (check_pivot), the dense
  // factor is zero outside it unless `a` was nonzero outside `pattern`.
  slot_of_.assign(n * n, -1);
  row_ptr_.assign(n + 1, 0);
  diag_.assign(n, 0);
  col_.clear();
  val_.clear();
  for (size_t i = 0; i < n; ++i) {
    row_ptr_[i] = col_.size();
    for (size_t j = 0; j < n; ++j) {
      if (!s[i * n + j]) {
        if (dense_(i, j) != 0.0) {
          throw std::invalid_argument("ReplayLU::analyse: matrix is nonzero outside the pattern");
        }
        continue;
      }
      if (j == i) diag_[i] = col_.size();
      slot_of_[i * n + j] = static_cast<int32_t>(col_.size());
      col_.push_back(j);
      val_.push_back(dense_(i, j));
    }
  }
  row_ptr_[n] = col_.size();

  cand_slot_.resize(cand_rows.size());
  for (size_t k = 0; k < n; ++k) {
    for (size_t c = cand_ptr_[k]; c < cand_ptr_[k + 1]; ++c) {
      cand_slot_[c] = static_cast<size_t>(slot_of_[final_row[cand_rows[c]] * n + k]);
    }
  }
  lcol_ptr_.assign(n + 1, 0);
  lcol_slot_.clear();
  tgt_ptr_.clear();
  tgt_.clear();
  for (size_t k = 0; k < n; ++k) {
    lcol_ptr_[k] = lcol_slot_.size();
    for (size_t i = k + 1; i < n; ++i) {
      const int32_t l = slot_of_[i * n + k];
      if (l < 0) continue;
      lcol_slot_.push_back(static_cast<size_t>(l));
      tgt_ptr_.push_back(tgt_.size());
      for (size_t u = diag_[k] + 1; u < row_ptr_[k + 1]; ++u) {
        tgt_.push_back(static_cast<size_t>(slot_of_[i * n + col_[u]]));
      }
    }
  }
  lcol_ptr_[n] = lcol_slot_.size();
  gather_src_ = pattern;
  gather_dst_.resize(pattern.size());
  for (size_t e = 0; e < pattern.size(); ++e) {
    const size_t i = final_row[ordered[pattern[e] / n]], j = ordered[pattern[e] % n];
    gather_dst_[e] = static_cast<size_t>(slot_of_[i * n + j]);
  }
  analysed_ = true;
}

bool ReplayLU::refactor(const DMatrix& a) {
  if (!analysed_ || a.rows() != n_ || a.cols() != n_) {
    analysed_ = false;
    return false;
  }
  std::fill(val_.begin(), val_.end(), 0.0);
  const double* src = a.data();
  for (size_t e = 0; e < gather_src_.size(); ++e) val_[gather_dst_[e]] = src[gather_src_[e]];
  size_t updates = 0;
  for (size_t k = 0; k < n_; ++k) {
    // Partial pivoting as the dense loop does it: the row at position k
    // first, then a strictly larger magnitude further down. Rows outside
    // the pattern hold zeros and never win.
    size_t c = cand_ptr_[k];
    const size_t c_end = cand_ptr_[k + 1];
    double best = 0.0;
    size_t chosen = val_.size();
    if (cand_at_k_[k]) {
      chosen = cand_slot_[c];
      best = std::abs(val_[chosen]);
      ++c;
    }
    for (; c < c_end; ++c) {
      const double v = std::abs(val_[cand_slot_[c]]);
      if (v > best) {
        best = v;
        chosen = cand_slot_[c];
      }
    }
    check_pivot(best);
    if (chosen != diag_[k]) {
      analysed_ = false;
      return false;
    }
    const double inv_piv = 1.0 / val_[diag_[k]];
    const size_t u0 = diag_[k] + 1;
    cols_.clear();
    for (size_t u = u0; u < row_ptr_[k + 1]; ++u) {
      if (val_[u] != 0.0) cols_.push_back(u - u0);
    }
    for (size_t e = lcol_ptr_[k]; e < lcol_ptr_[k + 1]; ++e) {
      double& l = val_[lcol_slot_[e]];
      const double m = l * inv_piv;
      l = m;
      if (m == 0.0) continue;
      const size_t* tgt = tgt_.data() + tgt_ptr_[e];
      for (const size_t c2 : cols_) val_[tgt[c2]] -= m * val_[u0 + c2];
      updates += cols_.size();
    }
  }
  elimination_updates_ = updates;
  return true;
}

double ReplayLU::dense_lower_row(size_t i, const std::vector<double>& y) const {
  // The dense factor holds m = 0 * (1 / pivot) outside the L pattern: a
  // zero with the sign of its column's pivot.
  double s = y[i];
  for (size_t j = 0; j < i; ++j) {
    const int32_t q = slot_of_[i * n_ + j];
    const double l = q >= 0 ? val_[static_cast<size_t>(q)] : std::copysign(0.0, val_[diag_[j]]);
    s -= l * y[j];
  }
  return s;
}

double ReplayLU::dense_upper_row(size_t i, const std::vector<double>& y) const {
  double s = y[i];
  for (size_t j = i + 1; j < n_; ++j) {
    const int32_t q = slot_of_[i * n_ + j];
    s -= (q >= 0 ? val_[static_cast<size_t>(q)] : 0.0) * y[j];
  }
  return s;
}

void ReplayLU::solve_into(const std::vector<double>& b, std::vector<double>& x) const {
  if (!analysed_) throw std::logic_error("ReplayLU::solve_into: no factor");
  const size_t n = n_;
  if (b.size() != n) throw std::invalid_argument("ReplayLU::solve_into: size mismatch");
  std::vector<double>& y = y_;
  y.resize(n);
  for (size_t i = 0; i < n; ++i) y[i] = b[a_row_[i]];
  // Terms outside the pattern are signed zeros while every earlier unknown
  // is finite: they leave a nonzero sum as it is and can only flip the
  // sign of an exact zero. Such rows, and every row after a non-finite
  // unknown, take the dense loop.
  bool dense_rows = n > 0 && !std::isfinite(y[0]);
  for (size_t i = 1; i < n; ++i) {
    double s = y[i];
    for (size_t q = row_ptr_[i]; q < diag_[i]; ++q) s -= val_[q] * y[col_[q]];
    if (s == 0.0 || dense_rows) s = dense_lower_row(i, y);
    y[i] = s;
    dense_rows = dense_rows || !std::isfinite(s);
  }
  dense_rows = false;
  for (size_t i = n; i-- > 0;) {
    double s = y[i];
    for (size_t q = diag_[i] + 1; q < row_ptr_[i + 1]; ++q) s -= val_[q] * y[col_[q]];
    if (s == 0.0 || dense_rows) s = dense_upper_row(i, y);
    y[i] = s / val_[diag_[i]];
    dense_rows = dense_rows || !std::isfinite(y[i]);
  }
  x.resize(n);
  for (size_t i = 0; i < n; ++i) x[a_col_[i]] = y[i];
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
