#include "linalg/preconditioner.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/metrics.hpp"
#include "linalg/kernels.hpp"

namespace gnrfet::linalg {

namespace {

/// Matches the escalation used by shifted-IC implementations: start
/// unshifted, then 1e-3 relative, then x10 per retry.
constexpr double kFirstShift = 1e-3;
constexpr double kMaxShift = 1e3;

/// Weight of the dropped fill folded onto the diagonals (0 = IC(0),
/// 1 = full MIC(0)); see IncompleteCholesky.
constexpr double kDropCompensation = 0.95;

void record_setup() { metrics::add(metrics::Counter::kPcgPrecondSetups); }

}  // namespace

void Preconditioner::apply(const std::vector<double>& r, std::vector<double>& z,
                           size_t lanes) const {
  if ((lanes != 1 && lanes != kernels::kLanes) || r.size() % lanes != 0) {
    throw std::invalid_argument("Preconditioner::apply: unsupported lane count");
  }
  z.resize(r.size());
  apply_lanes(r.data(), z.data(), r.size() / lanes, lanes);
}

// ---------------------------------------------------------------- Jacobi

void JacobiPreconditioner::factor(const SparseMatrix& a) {
  inv_diag_ = a.diagonal();
  for (auto& d : inv_diag_) d = (std::abs(d) > 1e-300) ? 1.0 / d : 1.0;
  record_setup();
}

void JacobiPreconditioner::apply_lanes(const double* r, double* z, size_t rows,
                                       size_t lanes) const {
  if (rows != inv_diag_.size()) {
    throw std::invalid_argument("JacobiPreconditioner::apply: size mismatch");
  }
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < lanes; ++j) z[i * lanes + j] = inv_diag_[i] * r[i * lanes + j];
  }
}

// ----------------------------------------------------------------- IC(0)

void IncompleteCholesky::factor(const SparseMatrix& a) {
  const size_t n = a.dim();
  n_ = n;
  const auto& row_ptr = a.row_ptr();
  const auto& col = a.col_idx();

  // Symbolic: L takes the lower-triangular pattern of A, diagonal last in
  // each row (columns are sorted, so that is simply the j <= i prefix).
  lrow_ptr_.assign(n + 1, 0);
  lcol_.clear();
  amap_.clear();
  for (size_t i = 0; i < n; ++i) {
    lrow_ptr_[i] = lcol_.size();
    bool has_diag = false;
    for (size_t k = row_ptr[i]; k < row_ptr[i + 1] && col[k] <= i; ++k) {
      lcol_.push_back(col[k]);
      amap_.push_back(k);
      has_diag |= (col[k] == i);
    }
    if (!has_diag) {
      throw std::invalid_argument("IncompleteCholesky: row without diagonal entry");
    }
  }
  lrow_ptr_[n] = lcol_.size();
  lval_.assign(lcol_.size(), 0.0);
  inv_ldiag_.assign(n, 0.0);

  // Strict upper part of L^T for the backward sweep: entry (i, j) of L
  // with j < i lands in row j, column i. Filling in ascending i keeps the
  // columns of each L^T row sorted.
  urow_ptr_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = lrow_ptr_[i]; k + 1 < lrow_ptr_[i + 1]; ++k) ++urow_ptr_[lcol_[k] + 1];
  }
  for (size_t i = 0; i < n; ++i) urow_ptr_[i + 1] += urow_ptr_[i];
  ucol_.assign(urow_ptr_[n], 0);
  umap_.assign(urow_ptr_[n], 0);
  uval_.assign(urow_ptr_[n], 0.0);
  std::vector<size_t> next(urow_ptr_.begin(), urow_ptr_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = lrow_ptr_[i]; k + 1 < lrow_ptr_[i + 1]; ++k) {
      const size_t slot = next[lcol_[k]]++;
      ucol_[slot] = static_cast<uint32_t>(i);
      umap_[slot] = k;
    }
  }

  shift_ = 0.0;
  refactor_numeric(a);
}

void IncompleteCholesky::refactor(const SparseMatrix& a) {
  if (n_ != a.dim() || lrow_ptr_.empty()) {
    factor(a);
    return;
  }
  refactor_numeric(a);
}

/// Numeric (M)IC(0) on the stored pattern: right-looking column
/// elimination with dropped fill compensated onto the diagonal (weight
/// kDropCompensation), plus the diagonal-shift retry loop. Keeps any previously
/// needed shift (retrying from zero every Newton iteration would thrash);
/// escalates further on new breakdowns. Update order is column-major,
/// left-to-right — fixed, so the factorization is bit-deterministic.
void IncompleteCholesky::refactor_numeric(const SparseMatrix& a) {
  const double* aval = a.values().data();
  for (;;) {
    // (Re)load the lower-triangular values of A, shift applied to the
    // diagonal (relative to |A(ii)|).
    for (size_t k = 0; k < lval_.size(); ++k) lval_[k] = aval[amap_[k]];
    if (shift_ != 0.0) {
      for (size_t i = 0; i < n_; ++i) {
        const size_t diag_k = lrow_ptr_[i + 1] - 1;
        const double aii = lval_[diag_k];
        lval_[diag_k] = aii + shift_ * (std::abs(aii) > 0.0 ? std::abs(aii) : 1.0);
      }
    }

    bool breakdown = false;
    for (size_t j = 0; j < n_ && !breakdown; ++j) {
      const size_t diag_j = lrow_ptr_[j + 1] - 1;
      const double d = lval_[diag_j];
      const double ajj = aval[amap_[diag_j]];
      const double scale = std::abs(ajj) > 0.0 ? std::abs(ajj) : 1.0;
      if (!(d > 1e-12 * scale)) {
        breakdown = true;
        break;
      }
      lval_[diag_j] = std::sqrt(d);
      inv_ldiag_[j] = 1.0 / lval_[diag_j];
      // Scale column j (rows i > j live in the transpose index).
      const size_t cb = urow_ptr_[j];
      const size_t ce = urow_ptr_[j + 1];
      for (size_t u = cb; u < ce; ++u) lval_[umap_[u]] *= inv_ldiag_[j];
      // Schur update: S(i2, i1) -= L(i1, j) L(i2, j) for i2 >= i1 > j.
      // In-pattern targets are updated in place; dropped fill is folded
      // onto the two diagonals it would have coupled (MIC row-sum
      // preservation), weighted by kDropCompensation.
      for (size_t u1 = cb; u1 < ce; ++u1) {
        const size_t i1 = ucol_[u1];
        const double v1 = lval_[umap_[u1]];
        for (size_t u2 = u1; u2 < ce; ++u2) {
          const size_t i2 = ucol_[u2];
          const double upd = v1 * lval_[umap_[u2]];
          // Find position (i2, i1) in row i2 (sorted, <= 7 entries).
          size_t pos = lrow_ptr_[i2 + 1];
          for (size_t k = lrow_ptr_[i2]; k < lrow_ptr_[i2 + 1]; ++k) {
            if (lcol_[k] == i1) {
              pos = k;
              break;
            }
            if (lcol_[k] > i1) break;
          }
          if (pos != lrow_ptr_[i2 + 1]) {
            lval_[pos] -= upd;
          } else {
            lval_[lrow_ptr_[i1 + 1] - 1] -= kDropCompensation * upd;
            lval_[lrow_ptr_[i2 + 1] - 1] -= kDropCompensation * upd;
          }
        }
      }
    }
    if (!breakdown) break;
    shift_ = shift_ == 0.0 ? kFirstShift : shift_ * 10.0;
    if (shift_ > kMaxShift) {
      throw std::runtime_error(
          "IncompleteCholesky: breakdown persists at maximum diagonal shift");
    }
  }
  for (size_t u = 0; u < umap_.size(); ++u) uval_[u] = lval_[umap_[u]];
  record_setup();
}

void IncompleteCholesky::apply_lanes(const double* r, double* z, size_t rows,
                                     size_t lanes) const {
  if (rows != n_ || lrow_ptr_.empty()) {
    throw std::invalid_argument("IncompleteCholesky::apply: not factored / size mismatch");
  }
  if (lanes == 1) {
    sweep<1>(r, z);
  } else {
    sweep<kernels::kLanes>(r, z);
  }
}

template <size_t K>
void IncompleteCholesky::sweep(const double* r, double* z) const {
  // Locals, so the stores into z cannot force the members to be reloaded.
  const size_t n = n_;
  const size_t* lrow_ptr = lrow_ptr_.data();
  const uint32_t* lcol = lcol_.data();
  const double* lval = lval_.data();
  const size_t* urow_ptr = urow_ptr_.data();
  const uint32_t* ucol = ucol_.data();
  const double* uval = uval_.data();
  const double* inv_ldiag = inv_ldiag_.data();
  double s[K], out[K];
  // Forward: L y = r into z (diagonal is the last entry of each L row).
  for (size_t i = 0; i < n; ++i) {
    kernels::gather_dot<K>(lval, lcol, lrow_ptr[i], lrow_ptr[i + 1] - 1, z, s);
    for (size_t j = 0; j < K; ++j) out[j] = (r[i * K + j] - s[j]) * inv_ldiag[i];
    std::memcpy(z + i * K, out, sizeof out);
  }
  // Backward: L^T z = y over z itself, strict upper part stored row-wise in
  // ucol_/uval_. Row i reads only higher rows, already final, and its own
  // y value before overwriting it.
  for (size_t i = n; i-- > 0;) {
    kernels::gather_dot<K>(uval, ucol, urow_ptr[i], urow_ptr[i + 1], z, s);
    for (size_t j = 0; j < K; ++j) out[j] = (z[i * K + j] - s[j]) * inv_ldiag[i];
    std::memcpy(z + i * K, out, sizeof out);
  }
}

// --------------------------------------------------------------- factory

PreconditionerKind preconditioner_kind_from_string(const std::string& s) {
  if (s == "ic0") return PreconditionerKind::kIc0;
  if (s == "jacobi") return PreconditionerKind::kJacobi;
  throw std::invalid_argument("unknown preconditioner '" + s + "' (expected ic0 or jacobi)");
}

const char* to_string(PreconditionerKind kind) {
  return kind == PreconditionerKind::kIc0 ? "ic0" : "jacobi";
}

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind) {
  if (kind == PreconditionerKind::kIc0) return std::make_unique<IncompleteCholesky>();
  return std::make_unique<JacobiPreconditioner>();
}

}  // namespace gnrfet::linalg
