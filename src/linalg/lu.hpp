#pragma once

#include "linalg/dense.hpp"

/// LU factorization with partial pivoting for the dense blocks of the
/// solver stack: the complex blocks of the recursive Green's function
/// sweeps (matrix inverse and linear solves on blocks of dimension up to
/// ~2N) and the real MNA Jacobian of the circuit simulator's Newton loop.
namespace gnrfet::linalg {

/// In-place LU decomposition holder, instantiated for T = double and
/// T = cplx. Throws std::runtime_error on a numerically singular pivot
/// (|pivot| below an absolute floor).
template <typename T>
class LU {
 public:
  /// Empty factorization; call factor() before solving. Exists so a
  /// long-lived workspace (negf::RgfWorkspace, the circuit Newton loop)
  /// can refactor matrix after matrix without reallocating its storage.
  LU() = default;
  explicit LU(Matrix<T> a);

  /// Refactor in place: copies `a` into the internal storage (allocation
  /// reused when shapes repeat) and runs the same elimination as the
  /// constructor — results are bit-identical to a fresh LU(a).
  void factor(const Matrix<T>& a);

  /// Solve A x = b for a single right-hand side.
  std::vector<T> solve(const std::vector<T>& b) const;

  /// solve(b) into caller-owned x (allocation reused). b must not alias x.
  void solve_into(const std::vector<T>& b, std::vector<T>& x) const;

  /// Solve A X = B column by column.
  Matrix<T> solve(const Matrix<T>& b) const;

  /// solve(b) into caller-owned X (allocation reused), substituting in
  /// place on X's columns. B must not alias X.
  void solve_into(const Matrix<T>& b, Matrix<T>& x) const;

 private:
  Matrix<T> lu_;
  std::vector<size_t> perm_;
};

extern template class LU<double>;
extern template class LU<cplx>;

/// Convenience: matrix inverse via LU. Throws on singular input.
CMatrix inverse(const CMatrix& a);

}  // namespace gnrfet::linalg
