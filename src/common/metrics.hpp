#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

/// Named counters and histograms for the solver stack.
///
/// Counters answer "how much work did the run do" (RGF solves, Gummel
/// iterations, PCG iterations, cache hits); histograms answer "how is
/// that work distributed per call" (Gummel iterations per bias point,
/// Newton iterations per Poisson solve). Both are recorded into
/// per-thread blocks — an increment is one relaxed atomic add on a block
/// only its own thread writes, so the hot path takes no lock and never
/// contends — and merged on snapshot(). The trace exporter
/// (common/trace.hpp) embeds the snapshot in the emitted JSON, and
/// tools/gnrfet_trace_report prints it.
///
/// The set of names is a fixed enum on purpose: an increment compiles to
/// an indexed add with no string hashing, and the lint/tidy gates see
/// every name at compile time.
namespace gnrfet::metrics {

/// Monotone event counters, one slot per thread block.
enum class Counter {
  kGummelIterations = 0,      ///< device: self-consistent outer iterations
  kNegfEnergyPoints,          ///< negf: energy grid points laid out
  kRgfSolves,                 ///< negf: individual RGF solves (per energy, per mode)
  kRgfBatchSolves,            ///< negf: batched RGF kernel invocations (SoA energy batches)
  kPoissonNewtonIterations,   ///< poisson: damped-Newton iterations
  kPcgIterations,             ///< linalg: full-grid PCG iterations
  kPcgPrecondSetups,          ///< linalg: preconditioner factorizations
  kTableCacheHits,            ///< device: bias tables served from disk cache
  kTableCacheMisses,          ///< device: bias tables generated cold
  /// Never incremented. Read only by perfbench's timed-call gate; delete
  /// with the `[benchmark]` refresh.
  kTableServiceCoalesced,
  kMnaFactorizations,         ///< circuit: MNA Jacobians factored (linalg::ReplayLU::factor calls)
  kMnaSymbolicAnalyses,       ///< circuit: of those, ReplayLU analyses, thrown ones included
  kMnaEliminationUpdates,     ///< circuit: row-entry updates of those that succeeded (fill)
  kTransientSteps,            ///< circuit: accepted transient time steps
  kGummelUnconverged,         ///< device: bias points that hit max_gummel_iterations
  kPoissonNewtonUnconverged,  ///< poisson: nonlinear solves that hit max_newton_iterations
  kCapacitanceBuilds,         ///< poisson: capacitance matrices G built (one per geometry)
  kReducedCgIterations,       ///< linalg: CG iterations of the reduced Newton systems on S
  kDcUnconverged,             ///< circuit: solve_dc calls that returned converged = false
  kTransientStepFailures,     ///< circuit: run_transient calls that gave up on a step
  kTransientStepRejections,   ///< circuit: failed transient steps retried as two half steps
  kTableCacheCorruptReplaced, ///< device: of the misses, unreadable entries replaced
  kCount
};
constexpr size_t kNumCounters = static_cast<size_t>(Counter::kCount);

/// Stable snake_case name of a counter (JSON keys, report rows).
const char* counter_name(Counter c);

/// Add `delta` to counter `c` on the calling thread's block.
void add(Counter c, uint64_t delta = 1);

/// Per-call distributions, log2-bucketed.
enum class Histogram {
  kGummelIterationsPerBias = 0,  ///< device: outer iterations per solve()
  kNewtonIterationsPerSolve,     ///< poisson: Newton iterations per nonlinear solve
  kPcgIterationsPerSolve,        ///< linalg: PCG iterations per solve
  kEnergyPointsPerTransport,     ///< negf: energy grid size per transport solve
  kRgfBatchWidth,                ///< negf: energies per batched RGF kernel call
  kCount
};
constexpr size_t kNumHistograms = static_cast<size_t>(Histogram::kCount);

/// Stable snake_case name of a histogram.
const char* histogram_name(Histogram h);

/// Number of log2 buckets: bucket 0 holds values < 1, bucket b >= 1 holds
/// values in [2^(b-1), 2^b), the last bucket catches everything above.
constexpr size_t kHistogramBuckets = 24;

/// Lower bound of a bucket (0 for bucket 0, else 2^(bucket-1)).
double bucket_lower_bound(size_t bucket);

/// Record one observation of `value` (negative values clamp to bucket 0).
void observe(Histogram h, double value);

/// Merged view of one histogram.
struct HistogramData {
  std::array<uint64_t, kHistogramBuckets> buckets{};
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;  ///< 0 when count == 0
};

/// Merged totals across every thread that recorded anything.
struct Snapshot {
  std::array<uint64_t, kNumCounters> counters{};
  std::array<HistogramData, kNumHistograms> histograms{};
};

/// Merge all per-thread blocks. Safe to call concurrently with recording
/// (relaxed reads), exact once recording threads have quiesced.
Snapshot snapshot();

/// Zero every registered block (tests). Call only while no recording
/// region is concurrently active.
// Test seam: counters are process-wide; tests zero them to count one run.
void reset();

}  // namespace gnrfet::metrics
