#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "device/tablegen.hpp"
#include "explore/montecarlo.hpp"
#include "gnr/modespace.hpp"
#include "negf/transport.hpp"
#include "synthetic_device.hpp"
#include "test_support.hpp"

namespace {

using namespace gnrfet;
using tests::ThreadCountGuard;

TEST(Parallel, CoversEveryIndexExactlyOnceUnderOversubscription) {
  // Far more threads than this host has cores: scheduling is maximally
  // adversarial, coverage must still be exact.
  ThreadCountGuard guard(16);
  const size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  par::parallel_for(n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, ChunkLayoutIndependentOfThreadCount) {
  EXPECT_EQ(par::num_chunks(0, 8), 0u);
  EXPECT_EQ(par::num_chunks(1, 8), 1u);
  EXPECT_EQ(par::num_chunks(16, 8), 2u);
  EXPECT_EQ(par::num_chunks(17, 8), 3u);
  for (int threads : {1, 3, 16}) {
    ThreadCountGuard guard(threads);
    std::vector<std::pair<size_t, size_t>> bounds(par::num_chunks(100, 7));
    par::parallel_for_chunks(100, 7, [&](size_t chunk, size_t begin, size_t end) {
      bounds[chunk] = {begin, end};
    });
    for (size_t c = 0; c < bounds.size(); ++c) {
      EXPECT_EQ(bounds[c].first, c * 7);
      EXPECT_EQ(bounds[c].second, std::min<size_t>(100, (c + 1) * 7));
    }
  }
}

TEST(Parallel, OrderedReductionBitIdenticalAcrossThreadCounts) {
  // A sum whose value depends on the fold order at the last bit; the
  // ordered reduction must produce the same bits for every thread count.
  const size_t n = 5000;
  const auto run = [&] {
    return par::parallel_reduce_ordered<double>(
        n, 16, 0.0,
        [](size_t begin, size_t end) {
          double s = 0.0;
          for (size_t i = begin; i < end; ++i) {
            s += std::sin(0.1 * static_cast<double>(i)) * 1e-3 + 1e8;
          }
          return s;
        },
        [](double& acc, double part) { acc += part; });
  };
  ThreadCountGuard g1(1);
  const double serial = run();
  for (int threads : {2, 4, 16}) {
    ThreadCountGuard g(threads);
    EXPECT_EQ(serial, run()) << threads << " threads";
  }
}

TEST(Parallel, NestedRegionsRunInlineWithoutDeadlock) {
  ThreadCountGuard guard(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  par::parallel_for(8, [&](size_t outer) {
    par::parallel_for(8, [&](size_t inner) { hits[outer * 8 + inner].fetch_add(1); });
  });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, CallerNestedRegionUnderSharedLockDoesNotDeadlock) {
  // Regression: every participant — including the top-level caller — takes
  // a shared lock and opens a nested region while holding it. The nested
  // region must run inline on the holder; if the caller's nested region
  // re-entered the pool instead, it would wait for workers that are
  // blocked on the lock the caller holds (permanent hang). This is the
  // shape of a cold-cache Monte Carlo sample generating a device table
  // under the DesignKit mutex.
  ThreadCountGuard guard(4);
  std::mutex mu;
  std::atomic<int> total{0};
  par::parallel_for(16, [&](size_t) {
    std::lock_guard<std::mutex> lk(mu);
    par::parallel_for(4, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(Parallel, ConcurrentTopLevelRegionsFromTwoThreadsComplete) {
  // Two non-worker threads open top-level regions at once; one wins the
  // pool, the other must fall back to inline execution — both regions
  // still cover every index exactly once.
  ThreadCountGuard guard(4);
  std::vector<std::atomic<int>> hits(2000);
  for (auto& h : hits) h.store(0);
  std::thread other(
      [&] { par::parallel_for(1000, [&](size_t i) { hits[i].fetch_add(1); }); });
  par::parallel_for(1000, [&](size_t i) { hits[1000 + i].fetch_add(1); });
  other.join();
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, FirstExceptionPropagatesToCaller) {
  ThreadCountGuard guard(4);
  EXPECT_THROW(par::parallel_for(100,
                                 [](size_t i) {
                                   if (i == 37) throw std::runtime_error("chunk failure");
                                 }),
               std::runtime_error);
}

negf::TransportSolution solve_reference_device() {
  const auto modes = gnr::build_mode_set(12, {2.7, 0.12}, 3);
  const size_t ncol = 30;
  std::vector<std::vector<double>> u(ncol, std::vector<double>(12, -0.3));
  for (size_t c = 0; c < ncol; ++c) {
    const double x = static_cast<double>(c) / static_cast<double>(ncol - 1);
    for (size_t j = 0; j < 12; ++j) u[c][j] = -0.3 - 0.4 * x;
  }
  negf::TransportOptions opt;
  opt.mu_drain_eV = -0.4;
  opt.energy_step_eV = 2e-3;
  return negf::solve_mode_space(modes, u, opt);
}

TEST(Parallel, GrownPoolWakesEveryNewWorkerForItsFirstRegion) {
  // Growing the pool spawns workers just before the next region starts.
  // Every chunk of that region waits at a barrier until all participants
  // hold a chunk at once, so a new worker that sleeps through the region
  // leaves its chunk unclaimed and the barrier times out instead of filling.
  constexpr int kThreads = 24;  // above every other test's count: the pool grows
  ThreadCountGuard guard(kThreads);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<int> released{0};
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  par::parallel_for(kThreads, [&](size_t) {
    std::unique_lock<std::mutex> lk(mu);
    ++arrived;
    cv.notify_all();
    if (cv.wait_until(lk, deadline, [&] { return arrived >= kThreads; })) released.fetch_add(1);
  });
  EXPECT_EQ(released.load(), kThreads) << "a worker slept through the region";
}

TEST(ParallelDeterminism, ModeSpaceSolveBitIdentical1v4Threads) {
  ThreadCountGuard g1(1);
  const auto serial = solve_reference_device();
  ThreadCountGuard g4(4);
  const auto threaded = solve_reference_device();

  EXPECT_EQ(serial.current_A, threaded.current_A);
  EXPECT_EQ(serial.total_net_electrons, threaded.total_net_electrons);
  ASSERT_EQ(serial.transmission.size(), threaded.transmission.size());
  for (size_t ie = 0; ie < serial.transmission.size(); ++ie) {
    ASSERT_EQ(serial.transmission[ie], threaded.transmission[ie]) << "ie=" << ie;
  }
  ASSERT_EQ(serial.electrons.size(), threaded.electrons.size());
  for (size_t c = 0; c < serial.electrons.size(); ++c) {
    for (size_t j = 0; j < serial.electrons[c].size(); ++j) {
      ASSERT_EQ(serial.electrons[c][j], threaded.electrons[c][j]);
      ASSERT_EQ(serial.holes[c][j], threaded.holes[c][j]);
    }
  }
}

device::DeviceTable generate_tiny_table() {
  device::DeviceSpec spec;
  spec.channel_length_nm = 6.0;
  spec.grid_step_nm = 0.35;
  spec.lateral_margin_nm = 2.0;
  spec.num_modes = 2;
  device::TableGenOptions opts;
  opts.vg_points = 3;
  opts.vd_points = 3;
  opts.vg_max = 0.5;
  opts.vd_max = 0.5;
  opts.solve.energy_step_eV = 5e-3;
  opts.solve.gummel_tolerance_V = 3e-3;
  opts.use_cache = false;
  return device::generate_device_table(spec, opts);
}

TEST(ParallelDeterminism, DeviceTableBitIdentical1v4Threads) {
  ThreadCountGuard g1(1);
  const device::DeviceTable serial = generate_tiny_table();
  ThreadCountGuard g4(4);
  const device::DeviceTable threaded = generate_tiny_table();

  ASSERT_EQ(serial.current_A.size(), threaded.current_A.size());
  for (size_t i = 0; i < serial.current_A.size(); ++i) {
    ASSERT_EQ(serial.current_A[i], threaded.current_A[i]) << "row " << i;
    ASSERT_EQ(serial.charge_C[i], threaded.charge_C[i]) << "row " << i;
  }
}

/// DesignKit on synthetic tables: the Monte Carlo draws variants with
/// N in {9, 12, 15} x q in {-1, 0, +1}; cover all nine (the particle-hole
/// mirror only flips q, which the set spans) so no NEGF generation runs.
void fill_synthetic_tables(explore::DesignKit& kit) {
  for (int n : {9, 12, 15}) {
    for (int q : {-1, 0, 1}) {
      device::DeviceTable t = synthetic::synthetic_table();
      // Make variants distinguishable: width scales current, an impurity
      // skews it, so scheduling mix-ups would change the statistics.
      const double scale = (n / 12.0) * (1.0 + 0.07 * q);
      for (auto& c : t.current_A) c *= scale;
      kit.set_table({n, static_cast<double>(q)}, std::move(t));
    }
  }
}

explore::MonteCarloResult run_tiny_mc() {
  explore::DesignKit kit;
  fill_synthetic_tables(kit);
  explore::MonteCarloOptions opts;
  opts.samples = 6;
  opts.vdd = 0.4;
  opts.vt = 0.13;
  opts.ring.t_stop_s = 0.4e-9;
  opts.ring.dt_s = 1e-12;
  return explore::run_ring_monte_carlo(kit, opts);
}

TEST(ParallelDeterminism, MonteCarloStatisticsInvariantToThreadCount) {
  ThreadCountGuard g1(1);
  const auto serial = run_tiny_mc();
  ThreadCountGuard g4(4);
  const auto threaded = run_tiny_mc();

  ASSERT_EQ(serial.samples.size(), threaded.samples.size());
  for (size_t s = 0; s < serial.samples.size(); ++s) {
    EXPECT_EQ(serial.samples[s].ok, threaded.samples[s].ok) << "sample " << s;
    EXPECT_EQ(serial.samples[s].frequency_Hz, threaded.samples[s].frequency_Hz);
    EXPECT_EQ(serial.samples[s].static_power_W, threaded.samples[s].static_power_W);
    EXPECT_EQ(serial.samples[s].dynamic_power_W, threaded.samples[s].dynamic_power_W);
  }
  EXPECT_EQ(serial.mean_frequency_Hz, threaded.mean_frequency_Hz);
  EXPECT_EQ(serial.mean_static_power_W, threaded.mean_static_power_W);
  EXPECT_EQ(serial.mean_dynamic_power_W, threaded.mean_dynamic_power_W);
}

}  // namespace
