#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cache.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "service/tableservice.hpp"
#include "env_guard.hpp"

namespace {

using namespace gnrfet;
using service::TableRequest;
using service::TableService;
using tests::EnvGuard;

/// Scoped thread-count override restoring the previous value on exit.
struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) : old_(par::thread_count()) { par::set_thread_count(n); }
  ~ThreadCountGuard() { par::set_thread_count(old_); }
  int old_;
};

/// A request whose cache key is a pure function of `n` (uncached: the
/// synthetic-generator tests must not touch the disk cache or lockfile).
TableRequest synth_request(int n) {
  TableRequest req;
  req.spec.n_index = n;
  req.opts.use_cache = false;
  return req;
}

/// Synthetic table: 8 + 8 axis values and 2 * 64 entries. Values encode n
/// for identity checks.
device::DeviceTable synth_table(int n) {
  device::DeviceTable t;
  for (int i = 0; i < 8; ++i) {
    t.vg.push_back(0.1 * i);
    t.vd.push_back(0.05 * i);
  }
  t.band_gap_eV = 0.01 * n;
  t.current_A.assign(64, 1e-6 * n);
  t.charge_C.assign(64, -1e-19 * n);
  return t;
}

/// A TableService over a counting synthetic generator.
struct SyntheticService {
  SyntheticService() {
    svc = std::make_unique<TableService>(
        [this](const device::DeviceSpec& spec, const device::TableGenOptions&) {
          calls.fetch_add(1, std::memory_order_relaxed);
          return synth_table(spec.n_index);
        });
  }
  std::atomic<int> calls{0};
  std::unique_ptr<TableService> svc;
};

uint64_t counter_total(metrics::Counter c) {
  return metrics::snapshot().counters[static_cast<size_t>(c)];
}

TEST(TableService, QueryPoolsAndSharesEntries) {
  SyntheticService s;
  const auto a = s.svc->query(synth_request(9));
  const auto b = s.svc->query(synth_request(9));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(s.calls.load(), 1);
  const TableService::Stats st = s.svc->stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.coalesced, 0u);
}

TEST(TableService, ClearKeepsOutstandingHandlesValid) {
  SyntheticService s;
  const auto held = s.svc->query(synth_request(9));
  s.svc->clear();
  EXPECT_EQ(s.svc->stats().entries, 0u);
  EXPECT_DOUBLE_EQ(held->band_gap_eV, 0.09);  // clear() never frees held entries
  s.svc->query(synth_request(9));             // cold again after clear
  EXPECT_EQ(s.calls.load(), 2);
}

TEST(TableService, GenerationErrorPropagatesAndSlotIsReleased) {
  std::atomic<int> calls{0};
  TableService svc([&](const device::DeviceSpec&,
                       const device::TableGenOptions&) -> device::DeviceTable {
    calls.fetch_add(1, std::memory_order_relaxed);
    throw std::runtime_error("generator boom");
  });
  EXPECT_THROW(svc.query(synth_request(9)), std::runtime_error);
  // The failed flight must not wedge the key: a retry leads a new one.
  EXPECT_THROW(svc.query(synth_request(9)), std::runtime_error);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(svc.stats().entries, 0u);
}

TEST(TableServiceParallel, ConcurrentMixedQueriesCoalesceAndShare) {
  SyntheticService s;
  ThreadCountGuard threads(8);
  std::vector<std::shared_ptr<const device::DeviceTable>> got(64);
  par::parallel_for(got.size(), [&](size_t i) {
    got[i] = s.svc->query(synth_request(9 + 3 * static_cast<int>(i % 4)));
  });
  EXPECT_EQ(s.calls.load(), 4);  // one generation per distinct variant
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i]);
    EXPECT_EQ(got[i].get(), got[i % 4].get());  // everyone shares the memo entry
  }
  const TableService::Stats st = s.svc->stats();
  EXPECT_EQ(st.misses, 4u);
  EXPECT_EQ(st.hits + st.coalesced, 60u);
}

TEST(TableServiceParallel, CoalescedCallersReceiveTheLeadersError) {
  // Callers that join a failing flight get the leader's exception, not a
  // null table; a caller arriving after the failure leads a fresh flight.
  std::atomic<int> calls{0};
  TableService svc([&](const device::DeviceSpec&,
                       const device::TableGenOptions&) -> device::DeviceTable {
    calls.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    throw std::runtime_error("generator boom");
  });
  ThreadCountGuard threads(8);
  std::atomic<int> errors{0};
  par::parallel_for(8, [&](size_t) {
    try {
      svc.query(synth_request(9));
    } catch (const std::runtime_error&) {
      errors.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(errors.load(), 8);
  const TableService::Stats st = svc.stats();
  EXPECT_EQ(st.misses, static_cast<uint64_t>(calls.load()));
  EXPECT_EQ(st.misses + st.coalesced, 8u);
  EXPECT_EQ(st.entries, 0u);
}

TEST(TableServiceParallel, SingleFlightStampedeGeneratesOnce) {
  // Eight threads hit one cold variant of the *real* pipeline (tiny device,
  // 2x2 bias grid): exactly one NEGF generation may run — asserted via the
  // device-layer cache-miss counter — and everyone shares its result.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_service_stampede";
  std::filesystem::remove_all(dir);
  EnvGuard cache_dir("GNRFET_CACHE_DIR", dir.c_str());
  TableService svc;  // default generator: generate_device_table
  TableRequest req;
  req.spec.n_index = 12;
  req.spec.channel_length_nm = 6.0;
  req.spec.grid_step_nm = 0.35;
  req.spec.lateral_margin_nm = 2.0;
  req.spec.num_modes = 2;
  req.opts.vg_points = 2;
  req.opts.vd_points = 2;
  req.opts.vg_max = 0.5;
  req.opts.vd_max = 0.5;
  req.opts.solve.energy_step_eV = 5e-3;
  req.opts.solve.gummel_tolerance_V = 3e-3;
  const uint64_t misses_before = counter_total(metrics::Counter::kTableCacheMisses);
  ThreadCountGuard threads(8);
  std::vector<std::shared_ptr<const device::DeviceTable>> got(8);
  par::parallel_for(got.size(), [&](size_t i) { got[i] = svc.query(req); });
  EXPECT_EQ(counter_total(metrics::Counter::kTableCacheMisses), misses_before + 1);
  for (const auto& t : got) {
    ASSERT_TRUE(t);
    EXPECT_EQ(t.get(), got[0].get());
  }
  const TableService::Stats st = svc.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits + st.coalesced, 7u);
  std::filesystem::remove_all(dir);
}

TEST(TableServiceParallel, LockfileSerializesTwoServices) {
  // Two service instances over one cache directory stand in for two
  // processes: the generation lockfile must let exactly one generate while
  // the other, once through the lock, loads the finished table from disk.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_service_lockfile";
  std::filesystem::remove_all(dir);
  EnvGuard cache_dir("GNRFET_CACHE_DIR", dir.c_str());
  std::atomic<int> generations{0};
  const auto make_service = [&] {
    return std::make_unique<TableService>(
        [&](const device::DeviceSpec& spec, const device::TableGenOptions& o) {
          generations.fetch_add(1, std::memory_order_relaxed);
          // Hold the lock long enough for the other service to pile up on it.
          std::this_thread::sleep_for(std::chrono::milliseconds(150));
          device::DeviceTable t = synth_table(spec.n_index);
          const std::string key = device::table_cache_payload(spec, o);
          device::save_table(t, cache::path_for("device-table", key), key);
          return t;
        });
  };
  auto service_a = make_service();
  auto service_b = make_service();
  TableRequest req = synth_request(12);
  req.opts.use_cache = true;  // the lockfile only guards cached requests
  std::shared_ptr<const device::DeviceTable> from_a, from_b;
  std::thread ta([&] { from_a = service_a->query(req); });
  std::thread tb([&] { from_b = service_b->query(req); });
  ta.join();
  tb.join();
  EXPECT_EQ(generations.load(), 1);  // the loser loaded the winner's file
  ASSERT_TRUE(from_a);
  ASSERT_TRUE(from_b);
  EXPECT_EQ(from_a->current_A, from_b->current_A);
  EXPECT_EQ(from_a->charge_C, from_b->charge_C);
  EXPECT_EQ(from_a->band_gap_eV, from_b->band_gap_eV);
  // The lockfile itself must not linger beside the cache entry.
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(e.path().extension().string(), ".lock") << "leftover lockfile: " << e.path();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
