#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/sparse.hpp"

/// Preconditioners for the PCG Poisson solves.
///
/// The Poisson operator is a structured-grid SPD Laplacian, and the
/// Newton/Gummel loops solve with the same sparsity pattern thousands of
/// times per bias table. IC(0) is the production preconditioner, chosen by
/// wall clock on a cold N=12 device table (EXPERIMENTS.md). Jacobi, the
/// weakest useful preconditioner here, stays as pcg_solve's
/// null-preconditioner fallback and as a test reference. `factor()` does the one-off symbolic setup (sparsity
/// analysis, allocation), `refactor()` refreshes only the numeric content
/// and is what the Newton loop calls when nothing but the matrix diagonal
/// moved.
///
/// Every sweep runs on one thread in a fixed order (see
/// linalg/kernels.hpp), so solves stay bit-deterministic; parallelism in
/// this codebase is across solves, never inside one.
namespace gnrfet::linalg {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// Full (symbolic + numeric) setup. Invalidates nothing on throw.
  virtual void factor(const SparseMatrix& a) = 0;

  /// Numeric-only refresh after value edits that preserved the sparsity
  /// pattern (the Newton loop only retargets the diagonal). Falls back to
  /// factor() when no prior setup exists or the dimension changed.
  virtual void refactor(const SparseMatrix& a) = 0;

  /// z = M^{-1} r on `lanes` interleaved vectors (row i of lane j at
  /// i*lanes + j; see linalg/kernels.hpp). `lanes` is 1 or
  /// kernels::kLanes, and each lane is bit-identical to a one-lane apply.
  /// Requires a prior factor()/refactor(). Keeps no scratch, so one
  /// factored preconditioner serves concurrent applies.
  void apply(const std::vector<double>& r, std::vector<double>& z, size_t lanes = 1) const;

  /// Stable identifier: "jacobi" or "ic0".
  virtual const char* name() const = 0;

 private:
  /// apply() on `rows` rows of `lanes` lanes each; z is sized.
  virtual void apply_lanes(const double* r, double* z, size_t rows, size_t lanes) const = 0;
};

/// Diagonal scaling: pcg_solve's fallback when no preconditioner is
/// passed, and the reference the IC(0) tests compare against.
class JacobiPreconditioner final : public Preconditioner {
 public:
  void factor(const SparseMatrix& a) override;
  void refactor(const SparseMatrix& a) override { factor(a); }
  const char* name() const override { return "jacobi"; }

 private:
  void apply_lanes(const double* r, double* z, size_t rows, size_t lanes) const override;

  std::vector<double> inv_diag_;
};

/// Zero-fill incomplete Cholesky: A ~= L L^T with L restricted to the
/// sparsity of lower(A). On breakdown (a non-positive pivot, possible for
/// SPD matrices that are not M-matrices) the factorization restarts with
/// an escalating diagonal shift A + alpha*diag(A) until every pivot is
/// positive (Manteuffel's shifted IC).
///
/// Relaxed modified IC: a fraction kDropCompensation = 0.95 of the fill
/// the pattern drops is moved onto the two affected diagonals instead of
/// being discarded, which nearly preserves row sums (the MIC property) and
/// cuts the condition number of the preconditioned Laplacian from O(h^-2)
/// toward O(h^-1). 0.95 rather than full MIC(0) is the usual robustness
/// compromise (full MIC can drive the last pivots toward zero on
/// near-singular rows — the shift fallback then engages).
///
/// factor() builds the L and L^T patterns plus an index map into A's value
/// array; refactor() re-runs only the numeric loop on the stored pattern —
/// valid whenever the pattern is unchanged, in particular for the Newton
/// diagonal updates.
///
/// apply() sweeps in place: forward L y = r into z, then backward
/// L^T z = y over z itself.
class IncompleteCholesky final : public Preconditioner {
 public:
  void factor(const SparseMatrix& a) override;
  void refactor(const SparseMatrix& a) override;
  const char* name() const override { return "ic0"; }

  /// Diagonal shift (relative to diag(A)) the last factorization needed;
  /// 0 when IC(0) succeeded unshifted.
  double diagonal_shift() const { return shift_; }

 private:
  void refactor_numeric(const SparseMatrix& a);
  void apply_lanes(const double* r, double* z, size_t rows, size_t lanes) const override;
  template <size_t K>
  void sweep(const double* r, double* z) const;

  size_t n_ = 0;
  // L in CSR, rows sorted, diagonal last in each row.
  std::vector<size_t> lrow_ptr_;
  std::vector<uint32_t> lcol_;
  std::vector<double> lval_;
  std::vector<size_t> amap_;  ///< L entry -> index into a.values()
  // Strict upper part of L^T in CSR (for the backward sweep), plus the map
  // from each L^T entry back to its L entry so one numeric pass fills both.
  std::vector<size_t> urow_ptr_, umap_;
  std::vector<uint32_t> ucol_;
  std::vector<double> uval_;
  std::vector<double> inv_ldiag_;
  double shift_ = 0.0;
};

enum class PreconditionerKind { kJacobi, kIc0 };

/// Parses "jacobi" | "ic0"; throws std::invalid_argument otherwise.
PreconditionerKind preconditioner_kind_from_string(const std::string& s);

const char* to_string(PreconditionerKind kind);

std::unique_ptr<Preconditioner> make_preconditioner(PreconditionerKind kind);

}  // namespace gnrfet::linalg
