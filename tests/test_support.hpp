#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "linalg/dense.hpp"
#include "linalg/lu.hpp"
#include "negf/rgf.hpp"

/// Helpers shared by the test files: a scoped thread-count override, a
/// read of one process-wide work counter, the checked-in benchmark tables,
/// value-returning dense LU factor and solve and block RGF solve, and the
/// permuted system of the dense LU oracle.
namespace gnrfet::tests {

/// Scoped thread-count override restoring the previous value on exit.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : old_(par::thread_count()) { par::set_thread_count(n); }
  ~ThreadCountGuard() { par::set_thread_count(old_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int old_;
};

/// Current value of one metrics counter, summed over all threads.
inline uint64_t counter(metrics::Counter c) {
  return metrics::snapshot().counters[static_cast<size_t>(c)];
}

/// The benchmark's checked-in variant tables (`perfbench/inputs`, read
/// only), found by walking up from the working directory; empty when the
/// tests do not run inside the source tree.
inline std::filesystem::path benchmark_inputs_dir() {
  namespace fs = std::filesystem;
  for (fs::path dir = fs::current_path();; dir = dir.parent_path()) {
    if (fs::exists(dir / "perfbench" / "inputs")) return dir / "perfbench" / "inputs";
    if (!dir.has_parent_path() || dir.parent_path() == dir) return {};
  }
}

/// A fresh dense LU factorization of `a`.
template <typename T>
linalg::LU<T> lu_factor(const linalg::Matrix<T>& a) {
  linalg::LU<T> lu;
  lu.factor(a);
  return lu;
}

/// The solution X of A X = B for the factor `lu` of A; `b` is one
/// right-hand side (a vector) or several (a matrix, column by column).
template <typename T, typename Rhs>
Rhs lu_solve(const linalg::LU<T>& lu, const Rhs& b) {
  Rhs x;
  lu.solve_into(b, x);
  return x;
}

/// negf::rgf_solve on a fresh workspace, returning its result.
inline negf::RgfResult rgf_solve(const gnr::BlockTridiagonal& h, double energy_eV,
                                 double eta_eV, const linalg::CMatrix& sigma_left,
                                 const linalg::CMatrix& sigma_right) {
  negf::RgfWorkspace ws;
  negf::RgfResult out;
  negf::rgf_solve(h, energy_eV, eta_eV, sigma_left, sigma_right, ws, out);
  return out;
}

/// P^T A P in the symmetric elimination order `order`:
/// (P^T A P)(i, j) = a(order[i], order[j]); with it, P^T b is
/// b[order[i]] and x[order[i]] is the i-th entry of the permuted solution.
/// A dense LU<double> of it is the oracle of linalg::ReplayLU in `order`.
inline linalg::DMatrix permuted(const linalg::DMatrix& a, const std::vector<size_t>& order) {
  const size_t n = order.size();
  linalg::DMatrix p(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) p(i, j) = a(order[i], order[j]);
  }
  return p;
}

}  // namespace gnrfet::tests
