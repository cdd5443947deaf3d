#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

/// Scoped-span tracing for the solver stack, exported as Chrome
/// trace-event JSON (viewable at ui.perfetto.dev or chrome://tracing).
///
/// Every solver layer opens a trace::Span for its unit of work (an RGF
/// transport solve, a self-consistent bias point, a nonlinear Poisson
/// solve, a transient run, a Monte Carlo sample). Spans are recorded into
/// per-thread buffers — the hot path takes no lock; the only mutex is the
/// one-time registration of each thread's buffer — and merged when the
/// trace is written. Together with the counters in common/metrics.hpp this
/// answers "where does the bias-table sweep actually spend its time"
/// without guessing.
///
/// Enabling: set GNRFET_TRACE=<path> (read through the checked env
/// helpers) and the process writes <path> at exit; or call
/// set_output_path() + flush() programmatically (tests, tools). When
/// disabled, a Span is one relaxed atomic load and a branch — cheap enough
/// to leave the instrumentation in Release builds.
namespace gnrfet::trace {

/// True when a trace output path is configured (GNRFET_TRACE or
/// set_output_path). Spans record only while enabled.
bool enabled();

/// The configured output path ("" when disabled).
// Test seam: lets a test restore the path it overrode.
std::string output_path();

/// Override the output path at runtime; "" disables recording. Intended
/// for tests and tools — not thread-safe against concurrently open spans.
// Test seam: tests record without GNRFET_TRACE set.
void set_output_path(const std::string& path);

/// Microseconds since the process trace epoch (steady clock). All spans
/// and the exported JSON share this one clock, and callers that time a
/// window of spans (the benchmark's timed call) read it too.
double now_us();

/// RAII scoped span: records [construction, destruction) as one complete
/// event under (category, name). Category is the subsystem ("negf",
/// "poisson", "device", "circuit", "linalg", "explore", "bench"); both
/// must be string literals, since the recorded event keeps the pointers
/// until the trace is written.
class Span {
 public:
  Span(const char* category, const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* category_;
  const char* name_;
  double begin_us_;
  bool active_;
};

/// One recorded event, merged across threads (tests and tools).
struct EventRecord {
  std::string category;
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;
};

/// Number of recorded events across all threads.
// Test seam: tests read the recorded spans in memory.
size_t event_count();

/// Merged copy of every recorded event. Call only while no span-recording
/// region is concurrently active.
// Test seam: tests read the recorded spans in memory.
std::vector<EventRecord> snapshot_events();

/// Serialize all recorded events plus the current metrics snapshot as
/// Chrome trace-event JSON. Does not clear the buffers.
void write_json(std::ostream& os);
// Test seam: tests parse the export without a file.
std::string to_json();

/// Write the trace to output_path() and clear the buffers. No-op when
/// disabled or when nothing was recorded. Runs automatically at process
/// exit once tracing has been touched.
void flush();

/// Drop all recorded events (tests).
// Test seam: each test starts from an empty trace.
void clear();

}  // namespace gnrfet::trace
