#pragma once

#include <complex>
#include <stdexcept>
#include <vector>

/// Dense matrix/vector types for the quantum-transport kernels.
///
/// Matrices are row-major and sized at construction. The NEGF layer works
/// with complex blocks of dimension <= 2N (N = GNR index, <= 18), so all
/// operations here are simple O(n^3) kernels without blocking; they are not
/// the bottleneck of the pipeline (the energy loop is).
namespace gnrfet::linalg {

using cplx = std::complex<double>;

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  static Matrix identity(size_t n) {
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Reshape to rows x cols and zero-fill, reusing the existing allocation
  /// when capacity allows. The RGF workspaces call this once per energy on
  /// long-lived scratch matrices, so the hot loop never touches the heap.
  void resize_zero(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, T{});
  }

  Matrix& operator+=(const Matrix& o) {
    check_same_shape(o);
    for (size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
    return *this;
  }
  Matrix& operator-=(const Matrix& o) {
    check_same_shape(o);
    for (size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
    return *this;
  }
  Matrix& operator*=(T s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, T s) { return a *= s; }
  friend Matrix operator*(T s, Matrix a) { return a *= s; }

  friend Matrix operator*(const Matrix& a, const Matrix& b) {
    if (a.cols_ != b.rows_) throw std::invalid_argument("Matrix multiply: shape mismatch");
    Matrix c(a.rows_, b.cols_);
    for (size_t i = 0; i < a.rows_; ++i) {
      for (size_t k = 0; k < a.cols_; ++k) {
        const T aik = a(i, k);
        if (aik == T{}) continue;
        const T* brow = &b.data_[k * b.cols_];
        T* crow = &c.data_[i * c.cols_];
        for (size_t j = 0; j < b.cols_; ++j) crow[j] += aik * brow[j];
      }
    }
    return c;
  }

  /// Conjugate transpose for complex T, plain transpose for real T.
  Matrix adjoint() const {
    Matrix m(cols_, rows_);
    for (size_t i = 0; i < rows_; ++i) {
      for (size_t j = 0; j < cols_; ++j) {
        if constexpr (std::is_same_v<T, cplx>) {
          m(j, i) = std::conj((*this)(i, j));
        } else {
          m(j, i) = (*this)(i, j);
        }
      }
    }
    return m;
  }

  T trace() const {
    T t{};
    const size_t n = std::min(rows_, cols_);
    for (size_t i = 0; i < n; ++i) t += (*this)(i, i);
    return t;
  }

 private:
  void check_same_shape(const Matrix& o) const {
    if (rows_ != o.rows_ || cols_ != o.cols_) {
      throw std::invalid_argument("Matrix: shape mismatch");
    }
  }
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<T> data_;
};

/// c = a * b written into caller-owned storage (allocation reused). The
/// accumulation runs in exactly the order of operator* above, so the two
/// are bit-identical; c must not alias a or b.
template <typename T>
void multiply_into(Matrix<T>& c, const Matrix<T>& a, const Matrix<T>& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("multiply_into: shape mismatch");
  c.resize_zero(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const T aik = a(i, k);
      if (aik == T{}) continue;
      for (size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
}

/// dst = adjoint(src) into caller-owned storage; dst must not alias src.
template <typename T>
void adjoint_into(Matrix<T>& dst, const Matrix<T>& src) {
  dst.resize_zero(src.cols(), src.rows());
  for (size_t i = 0; i < src.rows(); ++i) {
    for (size_t j = 0; j < src.cols(); ++j) {
      if constexpr (std::is_same_v<T, cplx>) {
        dst(j, i) = std::conj(src(i, j));
      } else {
        dst(j, i) = src(i, j);
      }
    }
  }
}

using CMatrix = Matrix<cplx>;
using DMatrix = Matrix<double>;

/// Non-template CMatrix overloads (preferred by overload resolution over
/// the templates above): cache-blocked kernels with the complex arithmetic
/// expanded to branch-free split-component form, so the inner loops
/// vectorize instead of calling the NaN-recovery complex multiply. For
/// finite operands they are bit-identical to the templates — the same
/// per-element accumulation order (ascending k, zero-row skip included) and
/// the exact product formula the compiler emits for finite std::complex
/// multiplies. Defined in dense.cpp.
void multiply_into(CMatrix& c, const CMatrix& a, const CMatrix& b);
void adjoint_into(CMatrix& dst, const CMatrix& src);

}  // namespace gnrfet::linalg
