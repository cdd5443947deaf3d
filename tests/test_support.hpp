#pragma once

#include <cstdint>
#include <filesystem>

#include "common/metrics.hpp"
#include "common/parallel.hpp"

/// Helpers shared by the test files: a scoped thread-count override, a
/// read of one process-wide work counter and the checked-in benchmark
/// tables.
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

}  // namespace gnrfet::tests
