#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

/// Deterministic thread-pool parallelism for the embarrassingly parallel
/// loops of the pipeline: the NEGF energy grid, the bias-table columns,
/// Monte Carlo samples, and the (VT, VDD) exploration plane.
///
/// Determinism contract: work is split into fixed chunks whose layout
/// depends only on the problem size and grain — never on the thread count
/// or on scheduling. Reductions combine per-chunk partials in ascending
/// chunk order on the calling thread, so every result is bit-identical
/// whether it ran on 1 thread or 64.
///
/// Thread count comes from GNRFET_THREADS (default: hardware concurrency;
/// 1 = no worker threads, every region runs inline on the caller). Nested
/// regions always run inline — whether entered from a pool worker or from
/// the top-level caller while it executes its share of an enclosing
/// region — which keeps warm-start chains and the pool itself
/// deadlock-free. Only one top-level region is live at a time: if a second
/// thread opens a region while another is running, the newcomer executes
/// its whole region inline on its own thread (correct, just unaccelerated).
namespace gnrfet::par {

/// Resolved thread count (>= 1): GNRFET_THREADS, or hardware concurrency.
int thread_count();

/// Override the thread count at runtime (tests; growing the pool spawns
/// workers on demand). Must not be called from inside a parallel region.
// Test seam: determinism tests compare thread counts in one process.
void set_thread_count(int n);

/// Number of fixed chunks covering [0, n) at the given grain. The layout
/// is a pure function of (n, grain): chunk c covers
/// [c * grain, min(n, (c + 1) * grain)).
size_t num_chunks(size_t n, size_t grain);

/// Run body(chunk_index, begin, end) for every chunk of [0, n); blocks
/// until all chunks completed. The first exception thrown by any chunk is
/// rethrown on the caller after the region drains.
void parallel_for_chunks(size_t n, size_t grain,
                         const std::function<void(size_t, size_t, size_t)>& body);

/// Run body(i) for every i in [0, n) (grain picked automatically).
void parallel_for(size_t n, const std::function<void(size_t)>& body);

/// Map every chunk to a partial result in parallel, then fold the partials
/// into `init` in ascending chunk order: bit-identical for any thread
/// count. `map(begin, end)` returns a partial; `combine(acc, partial)`
/// folds it in.
template <typename T, typename Map, typename Combine>
T parallel_reduce_ordered(size_t n, size_t grain, T init, Map&& map, Combine&& combine) {
  const size_t chunks = num_chunks(n, grain);
  std::vector<T> partials(chunks);
  parallel_for_chunks(n, grain, [&](size_t chunk, size_t begin, size_t end) {
    partials[chunk] = map(begin, end);
  });
  for (size_t c = 0; c < chunks; ++c) combine(init, std::move(partials[c]));
  return init;
}

}  // namespace gnrfet::par
