#include "linalg/sparse.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "linalg/kernels.hpp"

namespace gnrfet::linalg {

void SparseBuilder::add(size_t row, size_t col, double value) {
  if (row >= n_ || col >= n_) throw std::out_of_range("SparseBuilder::add: index out of range");
  trips_.push_back({row, col, value});
}

namespace {

template <size_t K>
void multiply_lanes(const std::vector<size_t>& row_ptr, const std::vector<uint32_t>& col,
                    const std::vector<double>& values, const double* x, double* y) {
  for (size_t row = 0; row + 1 < row_ptr.size(); ++row) {
    kernels::gather_dot<K>(values.data(), col.data(), row_ptr[row], row_ptr[row + 1], x,
                           y + row * K);
  }
}

}  // namespace

SparseMatrix::SparseMatrix(const SparseBuilder& b) {
  const size_t n = b.dim();
  if (n > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("SparseMatrix: dimension exceeds 32-bit column indices");
  }
  auto trips = b.triplets();
  std::sort(trips.begin(), trips.end(), [](const auto& x, const auto& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  });
  row_ptr_.assign(n + 1, 0);
  col_idx_.reserve(trips.size());
  values_.reserve(trips.size());
  size_t i = 0;
  for (size_t row = 0; row < n; ++row) {
    row_ptr_[row] = col_idx_.size();
    while (i < trips.size() && trips[i].row == row) {
      const size_t col = trips[i].col;
      double v = 0.0;
      while (i < trips.size() && trips[i].row == row && trips[i].col == col) {
        v += trips[i].value;
        ++i;
      }
      col_idx_.push_back(static_cast<uint32_t>(col));
      values_.push_back(v);
    }
  }
  row_ptr_[n] = col_idx_.size();
  diag_pos_.assign(n, -1);
  for (size_t row = 0; row < n; ++row) {
    for (size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      if (col_idx_[k] == row) diag_pos_[row] = static_cast<ptrdiff_t>(k);
    }
  }
}

void SparseMatrix::multiply(const std::vector<double>& x, std::vector<double>& y,
                            size_t lanes) const {
  if (x.size() != dim() * lanes) {
    throw std::invalid_argument("SparseMatrix::multiply: size mismatch");
  }
  y.resize(x.size());  // every entry is overwritten below; no need to zero-fill
  if (lanes == 1) {
    multiply_lanes<1>(row_ptr_, col_idx_, values_, x.data(), y.data());
  } else if (lanes == kernels::kLanes) {
    multiply_lanes<kernels::kLanes>(row_ptr_, col_idx_, values_, x.data(), y.data());
  } else {
    throw std::invalid_argument("SparseMatrix::multiply: unsupported lane count");
  }
}

std::vector<double> SparseMatrix::diagonal() const {
  std::vector<double> d(dim(), 0.0);
  for (size_t row = 0; row < dim(); ++row) {
    if (diag_pos_[row] >= 0) d[row] = values_[static_cast<size_t>(diag_pos_[row])];
  }
  return d;
}

void SparseMatrix::add_to_diagonal(size_t row, double value) {
  if (row >= dim() || diag_pos_[row] < 0) {
    throw std::out_of_range("SparseMatrix::add_to_diagonal: no diagonal entry");
  }
  values_[static_cast<size_t>(diag_pos_[row])] += value;
}

void SparseMatrix::set_diagonal(size_t row, double value) {
  if (row >= dim() || diag_pos_[row] < 0) {
    throw std::out_of_range("SparseMatrix::set_diagonal: no diagonal entry");
  }
  values_[static_cast<size_t>(diag_pos_[row])] = value;
}

void SparseMatrix::restore_values(const std::vector<double>& values) {
  if (values.size() != values_.size()) {
    throw std::invalid_argument("SparseMatrix::restore_values: nonzero count mismatch");
  }
  values_ = values;
}

}  // namespace gnrfet::linalg
