#pragma once

#include <optional>
#include <string>

#include "common/csv.hpp"
#include "common/trace.hpp"

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

/// Wall-clock timer for one named bench phase ("bench/phase", a string
/// literal). On stop (or destruction) it prints the elapsed time. With
/// GNRFET_TRACE set, the phase is also a `bench` span in the trace, on the
/// clock of the solver spans it encloses.
class PhaseTimer {
 public:
  explicit PhaseTimer(const char* name);
  ~PhaseTimer();

  /// Stop and record; returns elapsed seconds. Idempotent.
  double stop();

 private:
  const char* name_;
  double start_us_;
  double seconds_ = -1.0;
  std::optional<trace::Span> span_;  ///< ends at stop()
};

}  // namespace gnrfet::bench
