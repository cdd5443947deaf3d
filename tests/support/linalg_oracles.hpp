#pragma once

#include <memory>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sparse.hpp"

/// Test oracles of the linalg layer: Jacobi, the weakest useful
/// preconditioner for the Poisson operator, against which the tests hold
/// the production IC(0) (linalg/preconditioner.hpp), the factory that
/// picks one of the two by kind, the diagonal both Jacobi and the
/// full-grid Poisson oracle start from, the one-row dense matvec that
/// the row-blocked kernels::dense_matvec must match bit for bit, and the
/// Hermitian eigensolver behind the band-structure oracle
/// (support/gnr_oracles.hpp).
namespace gnrfet::linalg {

/// Frobenius norm.
double frobenius_norm(const CMatrix& m);
double frobenius_norm(const DMatrix& m);

/// Hermitian part (A + A^dagger)/2.
CMatrix hermitian_part(const CMatrix& a);

struct EigResult {
  /// Eigenvalues in ascending order.
  std::vector<double> values;
  /// Eigenvectors as columns of a unitary matrix, ordered like `values`.
  CMatrix vectors;
};

/// Full eigendecomposition of a Hermitian matrix via the cyclic complex
/// Jacobi method. The input is symmetrized internally; throws if the
/// anti-Hermitian part is large (> 1e-8 relative), which indicates misuse.
EigResult eigh(const CMatrix& a);

/// Diagonal entries of `a` (zero where absent).
std::vector<double> diagonal(const SparseMatrix& a);

/// Diagonal scaling.
class JacobiPreconditioner final : public Preconditioner {
 public:
  void factor(const SparseMatrix& a) override;

 private:
  void apply_lanes(const double* r, double* z, size_t rows, size_t lanes) const override;

  std::vector<double> inv_diag_;
};

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind);

/// y = A x for a dense row-major n x n matrix A, one row at a time, in the
/// row order documented on kernels::dense_matvec.
void dense_matvec_one_row(const double* a, size_t n, const double* x, double* y);

}  // namespace gnrfet::linalg
