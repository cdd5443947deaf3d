#pragma once

#include <cstdint>

#include "linalg/dense.hpp"

/// LU factorization with partial pivoting for the dense blocks of the
/// solver stack: the complex blocks of the recursive Green's function
/// sweeps (matrix inverse and linear solves on blocks of dimension up to
/// ~2N) and the real MNA Jacobian of the circuit simulator's Newton loop.
///
/// The MNA Jacobian is mostly zeros. The real factor updates only the
/// nonzero entries of each pivot row. ReplayLU::factor, the one call of
/// the Newton loop, permutes the Jacobian into a fill-reducing symmetric
/// elimination order (minimum_degree_order of its first matrix), which
/// cuts the ring oscillator's factorization work ~200x, runs the dense
/// factor of the permuted matrix once per Jacobian pattern, as the
/// analysis, replays it on every later Jacobian of the pattern in
/// O(nnz + fill updates), bit-identical to the dense factor and solve, and
/// analyses again when the pattern grows or a pivot moves.
namespace gnrfet::linalg {

/// In-place LU decomposition holder, instantiated for T = double and
/// T = cplx. Throws std::runtime_error on a numerically singular pivot
/// (|pivot| below an absolute floor) and std::invalid_argument on a NaN
/// pivot.
template <typename T>
class LU {
 public:
  /// Empty factorization; call factor() before solving. A long-lived
  /// workspace (negf::RgfWorkspace) refactors matrix after matrix without
  /// reallocating its storage.
  LU() = default;

  /// Factor `a`: copies it into the internal storage (allocation reused
  /// when shapes repeat) and eliminates in place.
  void factor(const Matrix<T>& a);

  /// Row-entry updates a(i, j) -= m * a(k, j) of the last factorization
  /// (its fill-dependent cost). The real factor skips the zero entries of
  /// each pivot row, which leave a(i, j) unchanged.
  size_t elimination_updates() const { return elimination_updates_; }

  // Test seam: the solve of ReplayLU's dense oracle; RGF solves matrices.
  /// Solve A x = b for a single right-hand side into caller-owned x
  /// (allocation reused). b must not alias x.
  void solve_into(const std::vector<T>& b, std::vector<T>& x) const;

  /// Solve A X = B column by column into caller-owned X (allocation
  /// reused), substituting in place on X's columns. B must not alias X.
  void solve_into(const Matrix<T>& b, Matrix<T>& x) const;

 private:
  Matrix<T> lu_;
  std::vector<size_t> perm_;  ///< row i of the factor is row perm_[i] of A
  std::vector<size_t> pivot_row_cols_;
  size_t elimination_updates_ = 0;
};

// Test seam: ReplayLU's dense oracle. It stays here, not in tests/, because
// it shares factor_in_place with ReplayLU's analysis.
extern template class LU<double>;
extern template class LU<cplx>;

/// Replay of one LU<double> factorization, in a symmetric elimination
/// order, on a fixed structural pattern (KLU-style refactorization: Davis
/// & Palamadai Natarajan, ACM TOMS 37(3), 2010), for the circuit Newton
/// loop, which factors thousands of Jacobians with one pattern.
///
/// factor() owns every decision about the factorization. Its first call
/// fixes the elimination order, the minimum_degree_order of that matrix,
/// for the life of the object. A call whose pattern has grown, or whose
/// matrix would move a pivot, runs the analysis: the dense factor of the
/// permuted matrix P^T A P, recording from the structural pattern and the
/// pivot rows partial pivoting chose the L and U pattern (fill included)
/// and the update list of each elimination step. Every other call replays
/// it in O(nnz + updates): it gathers only the pattern entries, checks
/// each pivot against the one partial pivoting picks in the dense loop's
/// own row order (ties included), and eliminates along the recorded lists.
/// solve_into() substitutes over the L and U rows. Factor and solve are
/// bit-identical to LU<double> of P^T A P solving P^T b, with the result
/// scattered back by the order.
class ReplayLU {
 public:
  /// Factor `a`. `pattern` lists the structural entries of `a` as
  /// row-major indices r * n + c, ascending: every entry that may be
  /// nonzero. Entries of `a` outside it must be zero, and between calls
  /// `pattern` may only grow (a size change is taken as growth). Counts
  /// one kMnaFactorizations, one kMnaSymbolicAnalyses before each analysis
  /// (one that throws included) and the elimination updates of a factor
  /// that succeeds. Throws std::runtime_error on a singular matrix and
  /// std::invalid_argument on a NaN pivot, as LU does; throws
  /// std::invalid_argument when `a` is not square, does not match the
  /// order's size, or its factor has a nonzero outside the pattern's fill.
  /// After any throw, solve_into() is invalid until a factor() succeeds.
  void factor(const DMatrix& a, const std::vector<size_t>& pattern);

  /// Solve A x = b with the last factor. b must not alias x.
  void solve_into(const std::vector<double>& b, std::vector<double>& x) const;

  // Test seam: the tests compare it with the dense oracle's update count.
  /// Row-entry updates of the last factorization, counted as LU counts them.
  size_t elimination_updates() const { return elimination_updates_; }

 private:
  /// The dense factor of P^T `a` P and its replay lists (see the class
  /// comment). After any throw it holds no analysis.
  void analyse(const DMatrix& a, const std::vector<size_t>& pattern);

  /// Factor `a` by replaying the analysis. Returns false, and leaves no
  /// usable factor, when there is no analysis or a pivot row differs from
  /// the one partial pivoting picks on `a`. Throws on a singular or NaN
  /// pivot, as LU does.
  bool refactor(const DMatrix& a);

  /// Forward and back substitution rows by the dense loop, all n terms:
  /// the exact dense result where the row lists alone could differ from
  /// it (the sign of an exact zero, or a non-finite earlier unknown).
  double dense_lower_row(size_t i, const std::vector<double>& y) const;
  double dense_upper_row(size_t i, const std::vector<double>& y) const;

  DMatrix dense_;              ///< the analysis factor, of P^T A P
  std::vector<size_t> perm_;   ///< its row permutation
  bool analysed_ = false;      ///< the factor below is usable
  size_t n_ = 0;
  size_t elimination_updates_ = 0;
  // Factor row i is row a_row_[i] of A; factor column j is column a_col_[j]
  // (a_col_ is the elimination order, fixed by the first factor()).
  std::vector<size_t> a_row_, a_col_;
  // L and U by rows (CSR, columns ascending), diagonal slot of each row,
  // and the slot of every factor position (-1 outside the pattern).
  std::vector<size_t> row_ptr_, col_, diag_;
  std::vector<int32_t> slot_of_;
  std::vector<double> val_;
  // A pattern entries: flat index into A and factor slot.
  std::vector<size_t> gather_src_, gather_dst_;
  // Step k: pivot-search candidates in the dense loop's row order
  // (cand_at_k_[k]: the first is the row at position k), the L slots of
  // column k, and per L slot the update target of each U slot of row k.
  std::vector<size_t> cand_ptr_, cand_slot_, lcol_ptr_, lcol_slot_, tgt_ptr_, tgt_;
  std::vector<char> cand_at_k_;
  std::vector<size_t> cols_;      ///< reused: the pivot row's nonzero columns / U slots
  mutable std::vector<double> y_;  ///< reused work vector of solve_into
};

// Test seam: the tests build the dense oracle's permutation with it.
/// Minimum-degree elimination order of the symmetrised nonzero pattern of
/// `a` (i and j coupled when a(i, j) or a(j, i) is nonzero): each step
/// eliminates the remaining unknown with the fewest remaining neighbours,
/// ties to the lowest index, and couples its neighbours (the fill).
/// Diagonal entries play no part. Deterministic; O(n^3), for matrices of
/// up to a few hundred unknowns.
std::vector<size_t> minimum_degree_order(const DMatrix& a);

}  // namespace gnrfet::linalg
