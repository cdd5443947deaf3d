#include "support/linalg_oracles.hpp"

#include <cmath>
#include <stdexcept>

#include "common/metrics.hpp"

namespace gnrfet::linalg {

void JacobiPreconditioner::factor(const SparseMatrix& a) {
  inv_diag_ = a.diagonal();
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

}  // namespace gnrfet::linalg
