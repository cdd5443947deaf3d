#pragma once

#include <string>

#include "common/csv.hpp"

/// Shared bench scaffolding: every bench prints the paper-style rows to
/// stdout and mirrors the series into CSV files under bench_out/ (relative
/// to the working directory) for plotting.
namespace gnrfet::bench {

/// bench_out/<name>.csv; creates the directory.
std::string output_path(const std::string& name);

/// Save and announce a CSV artifact.
void save_csv(const csv::Table& table, const std::string& name);

/// Section banner.
void banner(const std::string& title);

/// Wall-clock timer for one named bench phase. On stop (or destruction)
/// it prints the elapsed time and appends a
/// `{bench, phase, seconds, threads}` row to bench_out/perf_timings.csv,
/// so speedups stay measurable across PRs and thread counts. Runs on the
/// trace clock (common/trace.hpp): with GNRFET_TRACE set, every phase
/// also lands in the trace as a `bench` span aligned with the solver
/// spans it encloses.
class PhaseTimer {
 public:
  PhaseTimer(std::string bench, std::string phase);
  ~PhaseTimer();

  /// Stop and record; returns elapsed seconds. Idempotent.
  double stop();

 private:
  std::string bench_, phase_;
  double start_us_ = 0.0;
  double seconds_ = -1.0;
};

}  // namespace gnrfet::bench
