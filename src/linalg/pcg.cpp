#include "linalg/pcg.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace gnrfet::linalg {

namespace {

/// Absolute residual floor and iteration cap of every solve.
constexpr double kAbsTolerance = 1e-14;
constexpr size_t kMaxIterations = 20000;

/// Records each real lane's final iteration count once, on every exit
/// path — both into the global PCG histogram and into the
/// per-preconditioner one, so the trace report can show the
/// Jacobi-vs-IC(0) iteration split.
struct IterationRecorder {
  const PcgResult* results;
  size_t lanes;
  metrics::Histogram per_pc;
  ~IterationRecorder() {
    for (size_t j = 0; j < lanes; ++j) {
      const auto iterations = static_cast<double>(results[j].iterations);
      metrics::add(metrics::Counter::kPcgIterations, static_cast<uint64_t>(results[j].iterations));
      metrics::observe(metrics::Histogram::kPcgIterationsPerSolve, iterations);
      metrics::observe(per_pc, iterations);
    }
  }
};

metrics::Histogram histogram_for(const Preconditioner* pc) {
  return pc == nullptr || std::strcmp(pc->name(), "jacobi") == 0
             ? metrics::Histogram::kPcgIterationsJacobi
             : metrics::Histogram::kPcgIterationsIc0;
}

/// The one PCG iteration body. The K right-hand sides interleaved in `b`
/// advance in lockstep and every lane runs exactly the operation sequence
/// of a one-lane solve (see linalg/kernels.hpp), so K = 1 is pcg_solve and
/// each lane of K = kLanes is bit-identical to it. Lanes j >= `lanes` are
/// padding, dead from the start.
///
/// `x` is the iterate on the tracked rows: all rows when `rows` is null,
/// starting from x's contents; otherwise rows[0..nrows), starting from
/// zero, where A x = 0 makes the initial residual exactly b. At lane j's
/// convergence iteration its tracked iterate is copied into `x_out`
/// (nothing to copy when x_out is x). A converged lane keeps running with
/// alpha = beta = 0, and nothing it computes afterwards reaches x_out.
template <size_t K>
void pcg_lanes(const SparseMatrix& a, const std::vector<double>& b, size_t lanes,
               const size_t* rows, size_t nrows, std::vector<double>& x,
               std::vector<double>& x_out, const PcgOptions& opts, PcgResult* results) {
  const size_t n = a.dim();
  // Callers without an explicit preconditioner get a per-call Jacobi.
  JacobiPreconditioner fallback;
  const Preconditioner* precond = opts.preconditioner;
  if (precond == nullptr) {
    fallback.factor(a);
    precond = &fallback;
  }
  PcgWorkspace local;
  PcgWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : local;
  ws.r.resize(n * K);
  ws.ap.resize(n * K);

  if (rows == nullptr) {
    a.multiply(x, ws.ap, K);
    for (size_t i = 0; i < n * K; ++i) ws.r[i] = b[i] - ws.ap[i];
  } else {
    std::copy(b.begin(), b.end(), ws.r.begin());
  }
  double b_norm[K], rz[K];
  kernels::dot<K>(b.data(), b.data(), n, b_norm);
  for (size_t j = 0; j < K; ++j) b_norm[j] = std::sqrt(std::max(b_norm[j], 1e-300));

  precond->apply(ws.r, ws.z, K);
  ws.p = ws.z;
  kernels::dot<K>(ws.r.data(), ws.z.data(), n, rz);

  bool live[K];
  for (size_t j = 0; j < K; ++j) live[j] = j < lanes;
  const auto lane_finite = [&](size_t j) {
    for (size_t s = 0; s < nrows; ++s) {
      if (!std::isfinite(x[s * K + j])) return false;
    }
    return true;
  };
  const IterationRecorder recorder{results, lanes, histogram_for(opts.preconditioner)};
  for (size_t it = 0; it < kMaxIterations; ++it) {
    double rr[K];
    kernels::dot<K>(ws.r.data(), ws.r.data(), n, rr);
    bool any_live = false;
    for (size_t j = 0; j < K; ++j) {
      if (!live[j]) continue;
      const double r_norm = std::sqrt(rr[j]);
      results[j].residual_norm = r_norm;
      results[j].iterations = it;
      if (r_norm <= opts.rel_tolerance * b_norm[j] || r_norm <= kAbsTolerance) {
        results[j].converged = true;
        live[j] = false;
        GNRFET_ENSURE("linalg", "finite-solution", lane_finite(j),
                      "PCG converged to a solution containing NaN/inf");
        if (&x_out != &x) {
          for (size_t s = 0; s < nrows; ++s) x_out[s * K + j] = x[s * K + j];
        }
      }
      any_live |= live[j];
    }
    if (!any_live) return;
    a.multiply(ws.p, ws.ap, K);
    double pap[K], alpha[K], neg_alpha[K];
    kernels::dot<K>(ws.p.data(), ws.ap.data(), n, pap);
    bool breakdown = false;
    for (size_t j = 0; j < K; ++j) {
      breakdown |= live[j] && pap[j] <= 0.0;  // not SPD or breakdown
      alpha[j] = live[j] ? rz[j] / pap[j] : 0.0;
      neg_alpha[j] = -alpha[j];
    }
    if (breakdown) break;
    if (rows == nullptr) {
      kernels::axpy<K>(alpha, ws.p.data(), x.data(), n);
    } else {
      for (size_t s = 0; s < nrows; ++s) {
        for (size_t j = 0; j < K; ++j) x[s * K + j] += alpha[j] * ws.p[rows[s] * K + j];
      }
    }
    kernels::axpy<K>(neg_alpha, ws.ap.data(), ws.r.data(), n);
    precond->apply(ws.r, ws.z, K);
    double rz_new[K], beta[K];
    kernels::dot<K>(ws.r.data(), ws.z.data(), n, rz_new);
    for (size_t j = 0; j < K; ++j) {
      beta[j] = live[j] ? rz_new[j] / rz[j] : 0.0;
      rz[j] = rz_new[j];
    }
    kernels::xpby<K>(ws.z.data(), beta, ws.p.data(), n);
  }
  // Out of iterations or broken down: the live lanes end unconverged.
  double rr[K];
  kernels::dot<K>(ws.r.data(), ws.r.data(), n, rr);
  for (size_t j = 0; j < K; ++j) {
    if (live[j]) results[j].residual_norm = std::sqrt(rr[j]);
  }
}

}  // namespace

PcgResult pcg_solve(const SparseMatrix& a, const std::vector<double>& b,
                    std::vector<double>& x, const PcgOptions& opts) {
  trace::Span span("linalg", "pcg_solve");
  const size_t n = a.dim();
  if (b.size() != n) throw std::invalid_argument("pcg_solve: rhs size mismatch");
  if (x.size() != n) x.assign(n, 0.0);
  PcgResult result;
  pcg_lanes<1>(a, b, 1, nullptr, n, x, x, opts, &result);
  return result;
}

std::array<PcgResult, kernels::kLanes> pcg_solve_lanes(const SparseMatrix& a,
                                                       const std::vector<double>& b,
                                                       size_t lanes,
                                                       const std::vector<size_t>& rows,
                                                       std::vector<double>& x_rows,
                                                       const PcgOptions& opts) {
  trace::Span span("linalg", "pcg_solve");
  constexpr size_t K = kernels::kLanes;
  const size_t n = a.dim();
  if (b.size() != n * K) throw std::invalid_argument("pcg_solve_lanes: rhs size mismatch");
  if (lanes == 0 || lanes > K) throw std::invalid_argument("pcg_solve_lanes: bad lane count");
  for (const size_t row : rows) {
    if (row >= n) throw std::out_of_range("pcg_solve_lanes: tracked row out of range");
  }
  PcgWorkspace local;
  std::vector<double>& x = opts.workspace != nullptr ? opts.workspace->x : local.x;
  x.assign(rows.size() * K, 0.0);
  x_rows.resize(rows.size() * K);
  std::array<PcgResult, K> results;
  pcg_lanes<K>(a, b, lanes, rows.data(), rows.size(), x, x_rows, opts, results.data());
  return results;
}

}  // namespace gnrfet::linalg
