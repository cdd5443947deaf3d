#include "support/linalg_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/metrics.hpp"

namespace gnrfet::linalg {

namespace {

template <typename T>
double frob(const Matrix<T>& m) {
  double s = 0.0;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) s += std::norm(cplx(m(i, j)));
  }
  return std::sqrt(s);
}

/// Off-diagonal Frobenius norm squared.
double offdiag_norm2(const CMatrix& a) {
  double s = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (i != j) s += std::norm(a(i, j));
    }
  }
  return s;
}

/// One complex Jacobi rotation zeroing a(p,q). Updates A (Hermitian) and
/// accumulates the rotation into V.
void jacobi_rotate(CMatrix& a, CMatrix& v, size_t p, size_t q) {
  const cplx apq = a(p, q);
  if (std::abs(apq) == 0.0) return;
  const double app = a(p, p).real();
  const double aqq = a(q, q).real();
  // Phase so the effective off-diagonal element is real.
  const cplx phase = apq / std::abs(apq);
  const double g = std::abs(apq);
  const double tau = (aqq - app) / (2.0 * g);
  const double t = (tau >= 0.0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
  const double c = 1.0 / std::sqrt(1.0 + t * t);
  const double s = t * c;
  const cplx sp = s * phase;  // complex sine including phase

  const size_t n = a.rows();
  for (size_t k = 0; k < n; ++k) {
    const cplx akp = a(k, p);
    const cplx akq = a(k, q);
    a(k, p) = c * akp - std::conj(sp) * akq;
    a(k, q) = sp * akp + c * akq;
  }
  for (size_t k = 0; k < n; ++k) {
    const cplx apk = a(p, k);
    const cplx aqk = a(q, k);
    a(p, k) = c * apk - sp * aqk;
    a(q, k) = std::conj(sp) * apk + c * aqk;
  }
  for (size_t k = 0; k < n; ++k) {
    const cplx vkp = v(k, p);
    const cplx vkq = v(k, q);
    v(k, p) = c * vkp - std::conj(sp) * vkq;
    v(k, q) = sp * vkp + c * vkq;
  }
  // Clean up rounding on the zeroed pair.
  a(p, q) = 0.0;
  a(q, p) = 0.0;
}

}  // namespace

double frobenius_norm(const CMatrix& m) { return frob(m); }
double frobenius_norm(const DMatrix& m) { return frob(m); }

CMatrix hermitian_part(const CMatrix& a) {
  CMatrix h = a;
  const CMatrix ad = a.adjoint();
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      h(i, j) = 0.5 * (a(i, j) + ad(i, j));
    }
  }
  return h;
}

EigResult eigh(const CMatrix& input) {
  const size_t n = input.rows();
  if (input.cols() != n) throw std::invalid_argument("eigh: matrix must be square");
  // Verify Hermiticity and symmetrize.
  CMatrix a = hermitian_part(input);
  {
    CMatrix anti = input;
    anti -= a;
    const double scale = std::max(1.0, frobenius_norm(a));
    if (frobenius_norm(anti) > 1e-8 * scale) {
      throw std::invalid_argument("eigh: input is not Hermitian");
    }
  }
  CMatrix v = CMatrix::identity(n);
  const double norm2 = std::max(offdiag_norm2(a), 1e-300);
  const double tol2 = 1e-26 * std::max(1.0, norm2);
  for (int sweep = 0; sweep < 100; ++sweep) {
    if (offdiag_norm2(a) <= tol2) break;
    for (size_t p = 0; p + 1 < n; ++p) {
      for (size_t q = p + 1; q < n; ++q) {
        if (std::norm(a(p, q)) > tol2 / (double(n) * double(n))) {
          jacobi_rotate(a, v, p, q);
        }
      }
    }
  }
  EigResult r;
  r.values.resize(n);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> diag(n);
  for (size_t i = 0; i < n; ++i) diag[i] = a(i, i).real();
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) { return diag[x] < diag[y]; });
  r.vectors = CMatrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    r.values[j] = diag[order[j]];
    for (size_t i = 0; i < n; ++i) r.vectors(i, j) = v(i, order[j]);
  }
  return r;
}

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
