#pragma once

#include "linalg/dense.hpp"

/// LU factorization with partial pivoting for the dense blocks of the
/// solver stack: the complex blocks of the recursive Green's function
/// sweeps (matrix inverse and linear solves on blocks of dimension up to
/// ~2N) and the real MNA Jacobian of the circuit simulator's Newton loop.
///
/// The MNA Jacobian is stored dense but is mostly zeros. Its factor takes a
/// fill-reducing symmetric elimination order (minimum_degree_order, set
/// once per circuit solve) and updates only the nonzero entries of each
/// pivot row, which cuts the ring oscillator's factorization work ~200x.
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
  /// constructor — in the natural order, results are bit-identical to a
  /// fresh LU(a).
  void factor(const Matrix<T>& a);

  /// Symmetric elimination order of later factor() calls: they factor
  /// P^T A P, (P^T A P)(i, j) = A(order[i], order[j]), with the same
  /// partial pivoting, and the solves map b and x through the order. An
  /// identity or empty `order` is the natural order. Throws
  /// std::invalid_argument unless `order` is a permutation of 0..n-1.
  void set_order(const std::vector<size_t>& order);

  /// Row-entry updates a(i, j) -= m * a(k, j) of the last factorization
  /// (its fill-dependent cost). The real factor skips the zero entries of
  /// each pivot row, which leave a(i, j) unchanged.
  size_t elimination_updates() const { return elimination_updates_; }

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
  /// v[order_[i]] = v[i] for every i, in place along the cycles of order_
  /// (`at(i)` is the i-th entry of v).
  template <typename At>
  void scatter_through_order(At&& at) const;

  Matrix<T> lu_;
  std::vector<size_t> perm_;  ///< row i of the factor is row perm_[i] of A
  std::vector<size_t> order_, cycle_starts_, pivot_row_cols_;
  size_t elimination_updates_ = 0;
};

extern template class LU<double>;
extern template class LU<cplx>;

/// Convenience: matrix inverse via LU. Throws on singular input.
CMatrix inverse(const CMatrix& a);

/// Minimum-degree elimination order of the symmetrised nonzero pattern of
/// `a` (i and j coupled when a(i, j) or a(j, i) is nonzero): each step
/// eliminates the remaining unknown with the fewest remaining neighbours,
/// ties to the lowest index, and couples its neighbours (the fill).
/// Deterministic; O(n^3), for matrices of up to a few hundred unknowns.
std::vector<size_t> minimum_degree_order(const DMatrix& a);

}  // namespace gnrfet::linalg
