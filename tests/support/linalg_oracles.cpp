#include "support/linalg_oracles.hpp"

#include <cmath>
#include <stdexcept>

#include "common/metrics.hpp"

namespace gnrfet::linalg {

std::vector<double> diagonal(const SparseMatrix& a) {
  std::vector<double> d(a.dim(), 0.0);
  for (size_t row = 0; row < a.dim(); ++row) {
    for (size_t k = a.row_ptr()[row]; k < a.row_ptr()[row + 1]; ++k) {
      if (a.col_idx()[k] == row) d[row] = a.values()[k];
    }
  }
  return d;
}

void JacobiPreconditioner::factor(const SparseMatrix& a) {
  inv_diag_ = diagonal(a);
  for (auto& d : inv_diag_) d = (std::abs(d) > 1e-300) ? 1.0 / d : 1.0;
  metrics::add(metrics::Counter::kPcgPrecondSetups);
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

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind) {
  if (kind == PreconditionerKind::kIc0) return std::make_unique<IncompleteCholesky>();
  return std::make_unique<JacobiPreconditioner>();
}

void dense_matvec_one_row(const double* a, size_t n, const double* x, double* y) {
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

}  // namespace gnrfet::linalg
