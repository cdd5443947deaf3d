#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// Compressed-sparse-row matrix for the 3D Poisson operator. Column
/// indices are 32-bit (the constructor rejects n >= 2^32): the index
/// stream is a third of the bytes a multiply reads.
namespace gnrfet::linalg {

/// Triplet accumulator -> CSR. Duplicate (row, col) entries are summed,
/// which makes element-by-element assembly of the Poisson stencil natural.
class SparseBuilder {
 public:
  explicit SparseBuilder(size_t n) : n_(n) {}
  void add(size_t row, size_t col, double value);
  size_t dim() const { return n_; }

  struct Triplet {
    size_t row, col;
    double value;
  };
  const std::vector<Triplet>& triplets() const { return trips_; }

 private:
  size_t n_;
  std::vector<Triplet> trips_;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(const SparseBuilder& b);

  size_t dim() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }

  /// y = A x on `lanes` interleaved vectors (row i of lane j at
  /// i*lanes + j; see linalg/kernels.hpp). `lanes` is 1 or kernels::kLanes;
  /// each lane is bit-identical to a one-lane multiply.
  void multiply(const std::vector<double>& x, std::vector<double>& y, size_t lanes = 1) const;

  /// Overwrite the diagonal entry of `row`. The entry must exist (Poisson
  /// assembly always creates diagonals); throws otherwise. Lets a
  /// persistent Jacobian copy be retargeted each Newton iteration —
  /// diag(A) + charge term — without rebuilding the full value array.
  // Test seam: the full-grid Poisson oracle's Newton Jacobian; values() is read-only.
  void set_diagonal(size_t row, double value);

  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<uint32_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<size_t> row_ptr_;
  std::vector<uint32_t> col_idx_;
  std::vector<double> values_;
  std::vector<ptrdiff_t> diag_pos_;
};

}  // namespace gnrfet::linalg
