#include "linalg/pcg.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "linalg/kernels.hpp"

namespace gnrfet::linalg {

namespace {

/// Records the final iteration count once, on every exit path — both into
/// the global PCG histogram and into the per-preconditioner one, so the
/// trace report can show the Jacobi-vs-IC(0) iteration split.
struct IterationRecorder {
  const PcgResult& result;
  metrics::Histogram per_pc;
  ~IterationRecorder() {
    metrics::add(metrics::Counter::kPcgIterations, static_cast<uint64_t>(result.iterations));
    metrics::observe(metrics::Histogram::kPcgIterationsPerSolve,
                     static_cast<double>(result.iterations));
    metrics::observe(per_pc, static_cast<double>(result.iterations));
  }
};

metrics::Histogram histogram_for(const Preconditioner* pc) {
  return pc == nullptr || std::strcmp(pc->name(), "jacobi") == 0
             ? metrics::Histogram::kPcgIterationsJacobi
             : metrics::Histogram::kPcgIterationsIc0;
}

}  // namespace

PcgResult pcg_solve(const SparseMatrix& a, const std::vector<double>& b,
                    std::vector<double>& x, const PcgOptions& opts) {
  trace::Span span("linalg", "pcg_solve");
  const size_t n = a.dim();
  if (b.size() != n) throw std::invalid_argument("pcg_solve: rhs size mismatch");
  if (x.size() != n) x.assign(n, 0.0);

  // Callers without an explicit preconditioner get a per-call Jacobi.
  JacobiPreconditioner fallback;
  const Preconditioner* precond = opts.preconditioner;
  if (precond == nullptr) {
    fallback.factor(a);
    precond = &fallback;
  }

  PcgWorkspace local;
  PcgWorkspace& ws = opts.workspace != nullptr ? *opts.workspace : local;
  ws.r.resize(n);
  ws.z.resize(n);
  ws.ap.resize(n);

  a.multiply(x, ws.ap);
  for (size_t i = 0; i < n; ++i) ws.r[i] = b[i] - ws.ap[i];
  const double b_norm = std::sqrt(std::max(kernels::dot(b, b), 1e-300));

  precond->apply(ws.r, ws.z);
  ws.p = ws.z;
  double rz = kernels::dot(ws.r, ws.z);

  PcgResult result;
  const IterationRecorder recorder{result, histogram_for(opts.preconditioner)};
  for (size_t it = 0; it < opts.max_iterations; ++it) {
    const double r_norm = std::sqrt(kernels::dot(ws.r, ws.r));
    result.residual_norm = r_norm;
    result.iterations = it;
    if (r_norm <= opts.rel_tolerance * b_norm || r_norm <= opts.abs_tolerance) {
      result.converged = true;
      GNRFET_ENSURE("linalg", "finite-solution", contracts::all_finite(x),
                    "PCG converged to a solution containing NaN/inf");
      return result;
    }
    a.multiply(ws.p, ws.ap);
    const double pap = kernels::dot(ws.p, ws.ap);
    if (pap <= 0.0) break;  // not SPD or breakdown
    const double alpha = rz / pap;
    kernels::axpy(alpha, ws.p, x);
    kernels::axpy(-alpha, ws.ap, ws.r);
    precond->apply(ws.r, ws.z);
    const double rz_new = kernels::dot(ws.r, ws.z);
    const double beta = rz_new / rz;
    rz = rz_new;
    kernels::xpby(ws.z, beta, ws.p);
  }
  result.residual_norm = std::sqrt(kernels::dot(ws.r, ws.r));
  return result;
}

}  // namespace gnrfet::linalg
