#include "common/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/annotations.hpp"

namespace gnrfet::metrics {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-thread recording block. Only the owning thread writes; snapshot()
/// reads concurrently with relaxed loads, so every slot is atomic.
struct alignas(64) Block {
  std::array<std::atomic<uint64_t>, kNumCounters> counters{};

  struct Hist {
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{kInf};
    std::atomic<double> max{-kInf};
  };
  std::array<Hist, kNumHistograms> hists{};
};

struct Registry {
  common::Mutex mu;
  std::vector<std::shared_ptr<Block>> blocks GNRFET_GUARDED_BY(mu);
};

Registry& registry() {
  // Intentionally immortal (never destroyed): the trace exporter snapshots
  // the metrics from an at-exit hook in another translation unit, and
  // cross-TU static destruction order is unspecified. Leaking one registry
  // keeps the blocks valid for any late reader.
  static Registry* r = new Registry;
  return *r;
}

/// The calling thread's block, registered on first use. The shared_ptr is
/// held both thread-locally and by the registry, so a thread may exit
/// while its totals stay mergeable.
Block& local_block() {
  thread_local std::shared_ptr<Block> block = [] {
    auto b = std::make_shared<Block>();
    Registry& r = registry();
    common::MutexLock lk(r.mu);
    r.blocks.push_back(b);
    return b;
  }();
  return *block;
}

size_t bucket_of(double value) {
  if (!(value >= 1.0)) return 0;  // also catches NaN and negatives
  const size_t b = 1 + static_cast<size_t>(std::floor(std::log2(value)));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

const char* kCounterNames[kNumCounters] = {
    "gummel_iterations", "negf_energy_points",  "rgf_solves",
    "rgf_batch_solves",
    "poisson_newton_iterations", "pcg_iterations", "pcg_precond_setups",
    "table_cache_hits",  "table_cache_misses",
    "table_service_coalesced",
    "mna_factorizations", "mna_symbolic_analyses", "mna_elimination_updates",
    "transient_steps",
    "gummel_unconverged", "poisson_newton_unconverged",
    "capacitance_builds", "reduced_cg_iterations",
    "dc_unconverged", "transient_step_failures",
    "transient_step_rejections", "table_cache_corrupt_replaced",
};

const char* kHistogramNames[kNumHistograms] = {
    "gummel_iterations_per_bias",  "newton_iterations_per_solve",
    "pcg_iterations_per_solve",    "energy_points_per_transport",
    "rgf_batch_width",
};

}  // namespace

const char* counter_name(Counter c) { return kCounterNames[static_cast<size_t>(c)]; }

const char* histogram_name(Histogram h) { return kHistogramNames[static_cast<size_t>(h)]; }

double bucket_lower_bound(size_t bucket) {
  return bucket == 0 ? 0.0 : std::exp2(static_cast<double>(bucket - 1));
}

void add(Counter c, uint64_t delta) {
  local_block().counters[static_cast<size_t>(c)].fetch_add(delta, std::memory_order_relaxed);
}

void observe(Histogram h, double value) {
  Block::Hist& hist = local_block().hists[static_cast<size_t>(h)];
  hist.buckets[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  hist.count.fetch_add(1, std::memory_order_relaxed);
  // Owner-only writes: plain load-modify-store with relaxed ordering is
  // race-free against the owning thread and readable by snapshot().
  hist.sum.store(hist.sum.load(std::memory_order_relaxed) + value, std::memory_order_relaxed);
  if (value < hist.min.load(std::memory_order_relaxed)) {
    hist.min.store(value, std::memory_order_relaxed);
  }
  if (value > hist.max.load(std::memory_order_relaxed)) {
    hist.max.store(value, std::memory_order_relaxed);
  }
}

Snapshot snapshot() {
  Snapshot s;
  std::array<double, kNumHistograms> mins;
  std::array<double, kNumHistograms> maxs;
  mins.fill(kInf);
  maxs.fill(-kInf);
  Registry& r = registry();
  common::MutexLock lk(r.mu);
  for (const auto& block : r.blocks) {
    for (size_t c = 0; c < kNumCounters; ++c) {
      s.counters[c] += block->counters[c].load(std::memory_order_relaxed);
    }
    for (size_t h = 0; h < kNumHistograms; ++h) {
      const Block::Hist& src = block->hists[h];
      HistogramData& dst = s.histograms[h];
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        dst.buckets[b] += src.buckets[b].load(std::memory_order_relaxed);
      }
      dst.count += src.count.load(std::memory_order_relaxed);
      dst.sum += src.sum.load(std::memory_order_relaxed);
      mins[h] = std::min(mins[h], src.min.load(std::memory_order_relaxed));
      maxs[h] = std::max(maxs[h], src.max.load(std::memory_order_relaxed));
    }
  }
  for (size_t h = 0; h < kNumHistograms; ++h) {
    if (s.histograms[h].count > 0) {
      s.histograms[h].min = mins[h];
      s.histograms[h].max = maxs[h];
    }
  }
  return s;
}

void reset() {
  Registry& r = registry();
  common::MutexLock lk(r.mu);
  for (const auto& block : r.blocks) {
    for (auto& c : block->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : block->hists) {
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.min.store(kInf, std::memory_order_relaxed);
      h.max.store(-kInf, std::memory_order_relaxed);
    }
  }
}

}  // namespace gnrfet::metrics
