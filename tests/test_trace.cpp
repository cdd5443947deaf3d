#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cache.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "device/tablegen.hpp"
#include "env_guard.hpp"
#include "linalg/kernels.hpp"
#include "poisson/assembly.hpp"
#include "poisson/capacitance.hpp"
#include "poisson/grid.hpp"
#include "support/poisson_oracles.hpp"
#include "test_support.hpp"
#include "tools/json.hpp"

namespace {

using namespace gnrfet;
using tests::EnvGuard;
using tests::ThreadCountGuard;

/// Scoped trace configuration: clears recorded events, points the trace at
/// `path` (default: enabled with a sink path that is never flushed), and
/// restores the previous configuration + empty buffers on exit.
struct TraceGuard {
  explicit TraceGuard(const std::string& path = "unused-trace-sink.json")
      : old_path_(trace::output_path()) {
    trace::clear();
    trace::set_output_path(path);
  }
  ~TraceGuard() {
    trace::clear();
    trace::set_output_path(old_path_);
  }
  std::string old_path_;
};

/// The export parses as one JSON object through the tools' reader, the one
/// gnrfet_trace_report uses.
bool parses_as_object(const std::string& text) {
  json::Value root;
  return json::Parser(text).parse(root) && root.kind == json::Value::Kind::kObject;
}

TEST(Trace, DisabledSpansRecordNothing) {
  TraceGuard guard("");  // disabled
  ASSERT_FALSE(trace::enabled());
  const size_t before = trace::event_count();
  {
    trace::Span outer("test", "outer");
    trace::Span inner("test", "inner");
  }
  EXPECT_EQ(trace::event_count(), before);
}

TEST(Trace, EnableDisableRoundTrip) {
  TraceGuard guard("");
  EXPECT_FALSE(trace::enabled());
  EXPECT_EQ(trace::output_path(), "");
  trace::set_output_path("somewhere.json");
  EXPECT_TRUE(trace::enabled());
  EXPECT_EQ(trace::output_path(), "somewhere.json");
  trace::set_output_path("");
  EXPECT_FALSE(trace::enabled());
}

TEST(Trace, SpansNestOnOneThread) {
  TraceGuard guard;
  {
    trace::Span outer("test", "outer");
    { trace::Span inner("test", "inner"); }
  }
  const auto events = trace::snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at destruction: inner first.
  const auto& inner = events[0];
  const auto& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  // Containment: inner's [ts, ts+dur] lies within outer's.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-6);

  // The Poisson Newton loop traces each preconditioner refresh as its own
  // linalg span, nested in the nonlinear solve and beside (not inside) the
  // pcg_solve spans, so the rollup can split refresh time from PCG time.
  trace::clear();
  poisson::GridSpec g;
  g.nx = g.ny = g.nz = 5;
  g.dx = g.dy = g.dz = 0.3;
  poisson::Domain domain(g);
  domain.add_electrode({-1, 10, -1, 10, -0.001, 0.001});
  const poisson::Assembly assembly(domain);
  const std::vector<double> zero(g.num_nodes(), 0.0);
  std::vector<double> n0 = zero;
  n0[g.index(2, 2, 2)] = 1.0;
  const auto res =
      poisson::PoissonSolver(domain).solve_nonlinear({0.2}, n0, zero, zero, zero, zero);
  ASSERT_TRUE(res.converged);
  const auto solve_events = trace::snapshot_events();
  std::vector<trace::EventRecord> refreshes, pcgs, solves;
  for (const auto& e : solve_events) {
    if (e.name == "precond_refactor") refreshes.push_back(e);
    if (e.name == "pcg_solve") pcgs.push_back(e);
    if (e.name == "solve_nonlinear_poisson") solves.push_back(e);
  }
  ASSERT_EQ(solves.size(), 1u);
  ASSERT_EQ(refreshes.size(), static_cast<size_t>(res.iterations));
  EXPECT_EQ(pcgs.size(), refreshes.size());
  for (const auto& r : refreshes) {
    EXPECT_EQ(r.category, "linalg");
    EXPECT_GE(r.ts_us, solves[0].ts_us);
    EXPECT_LE(r.ts_us + r.dur_us, solves[0].ts_us + solves[0].dur_us + 1e-6);
    for (const auto& p : pcgs) {
      EXPECT_TRUE(r.ts_us + r.dur_us <= p.ts_us + 1e-6 || p.ts_us + p.dur_us <= r.ts_us + 1e-6);
    }
  }

  // The capacitance-matrix path: one poisson/build_capacitance span holding
  // one pcg_solve per block of kLanes columns (charge nodes, electrode),
  // then one pcg_solve after it for the fixed charge, then a nonlinear
  // solve holding one linalg/reduced_cg span per Newton step and no
  // full-grid PCG at all.
  trace::clear();
  ThreadCountGuard one_thread(1);
  const poisson::CapacitanceSolver cap(
      std::make_shared<const poisson::CapacitanceMatrix>(
          assembly, std::vector{domain.stencil(0.6, 0.6, 0.6)}),
      assembly, zero);
  const size_t columns = cap.size() + 1;  // one electrode
  const size_t blocks = (columns + linalg::kernels::kLanes - 1) / linalg::kernels::kLanes;
  const std::vector<double> n0_s(cap.size(), 0.25);
  const std::vector<double> zero_s(cap.size(), 0.0);
  const auto reduced = cap.solve_nonlinear({0.2}, n0_s, zero_s, zero_s, zero_s);
  ASSERT_TRUE(reduced.converged);
  const auto cap_events = trace::snapshot_events();
  std::vector<trace::EventRecord> builds, build_pcgs, reduced_cgs, reduced_solves;
  for (const auto& e : cap_events) {
    if (e.name == "build_capacitance") builds.push_back(e);
    if (e.name == "pcg_solve") build_pcgs.push_back(e);
    if (e.name == "reduced_cg") reduced_cgs.push_back(e);
    if (e.name == "solve_nonlinear_poisson") reduced_solves.push_back(e);
  }
  ASSERT_EQ(builds.size(), 1u);
  EXPECT_EQ(builds[0].category, "poisson");
  ASSERT_EQ(build_pcgs.size(), blocks + 1);
  size_t inside = 0;
  for (const auto& p : build_pcgs) {
    EXPECT_EQ(p.tid, builds[0].tid);
    if (p.ts_us + p.dur_us <= builds[0].ts_us + builds[0].dur_us + 1e-6) {
      EXPECT_GE(p.ts_us, builds[0].ts_us);
      ++inside;
    } else {
      EXPECT_GE(p.ts_us, builds[0].ts_us + builds[0].dur_us - 1e-6);  // the fixed charge
    }
  }
  EXPECT_EQ(inside, blocks);
  ASSERT_EQ(reduced_solves.size(), 1u);
  ASSERT_EQ(reduced_cgs.size(), static_cast<size_t>(reduced.iterations));
  for (const auto& r : reduced_cgs) {
    EXPECT_EQ(r.category, "linalg");
    EXPECT_EQ(r.tid, reduced_solves[0].tid);
    EXPECT_GE(r.ts_us, reduced_solves[0].ts_us);
    EXPECT_LE(r.ts_us + r.dur_us, reduced_solves[0].ts_us + reduced_solves[0].dur_us + 1e-6);
  }
}

TEST(TraceParallel, EventsMergeAcrossPoolThreads) {
  TraceGuard guard;
  ThreadCountGuard threads(4);
  const size_t n = 64;
  std::mutex mu;
  std::set<std::thread::id> os_threads;
  par::parallel_for(n, [&](size_t) {
    trace::Span span("test", "item");
    const std::lock_guard<std::mutex> lk(mu);
    os_threads.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(trace::event_count(), n);
  const auto events = trace::snapshot_events();
  ASSERT_EQ(events.size(), n);
  std::set<uint32_t> tids;
  for (const auto& e : events) {
    EXPECT_EQ(e.category, "test");
    EXPECT_EQ(e.name, "item");
    EXPECT_GE(e.dur_us, 0.0);
    tids.insert(e.tid);
  }
  // Per-thread attribution survives the merge: one trace tid per OS
  // thread that actually ran items (how many run is scheduling-dependent).
  EXPECT_EQ(tids.size(), os_threads.size());
}

TEST(Trace, JsonOutputIsWellFormed) {
  TraceGuard guard;
  metrics::reset();
  {
    trace::Span span("negf", "unit_test_span");
  }
  metrics::add(metrics::Counter::kRgfSolves, 7);
  metrics::observe(metrics::Histogram::kPcgIterationsPerSolve, 12.0);
  const std::string json = trace::to_json();
  EXPECT_TRUE(parses_as_object(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"unit_test_span\""), std::string::npos);
  EXPECT_NE(json.find("\"gnrfetCounters\""), std::string::npos);
  EXPECT_NE(json.find("\"rgf_solves\":7"), std::string::npos);
  EXPECT_NE(json.find("\"gnrfetHistograms\""), std::string::npos);
  EXPECT_NE(json.find("\"pcg_iterations_per_solve\""), std::string::npos);
  metrics::reset();
}

TEST(Trace, FlushWritesFileAndClears) {
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_trace_flush_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "nested" / "trace.json").string();
  TraceGuard guard(path);
  {
    trace::Span span("test", "flushed_span");
  }
  ASSERT_GE(trace::event_count(), 1u);
  trace::flush();
  EXPECT_EQ(trace::event_count(), 0u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(parses_as_object(ss.str()));
  EXPECT_NE(ss.str().find("flushed_span"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Metrics, CounterAndHistogramNamesAreStable) {
  EXPECT_STREQ(metrics::counter_name(metrics::Counter::kGummelIterations),
               "gummel_iterations");
  EXPECT_STREQ(metrics::counter_name(metrics::Counter::kTableCacheHits),
               "table_cache_hits");
  EXPECT_STREQ(metrics::histogram_name(metrics::Histogram::kEnergyPointsPerTransport),
               "energy_points_per_transport");
  EXPECT_EQ(metrics::bucket_lower_bound(0), 0.0);
  EXPECT_EQ(metrics::bucket_lower_bound(1), 1.0);
  EXPECT_EQ(metrics::bucket_lower_bound(4), 8.0);
}

TEST(Metrics, ObserveFillsLog2Buckets) {
  metrics::reset();
  metrics::observe(metrics::Histogram::kGummelIterationsPerBias, 0.5);   // bucket 0
  metrics::observe(metrics::Histogram::kGummelIterationsPerBias, 1.0);   // bucket 1
  metrics::observe(metrics::Histogram::kGummelIterationsPerBias, 5.0);   // bucket 3
  metrics::observe(metrics::Histogram::kGummelIterationsPerBias, 5.5);   // bucket 3
  const auto snap = metrics::snapshot();
  const auto& h =
      snap.histograms[static_cast<size_t>(metrics::Histogram::kGummelIterationsPerBias)];
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 12.0);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 5.5);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[3], 2u);
  metrics::reset();
  EXPECT_EQ(metrics::snapshot().counters[0], 0u);
}

TEST(MetricsParallel, CountersMergeAcrossPoolThreads) {
  metrics::reset();
  ThreadCountGuard threads(4);
  const size_t n = 1000;
  par::parallel_for(n, [&](size_t) {
    metrics::add(metrics::Counter::kRgfSolves);
    metrics::observe(metrics::Histogram::kPcgIterationsPerSolve, 2.0);
  });
  const auto snap = metrics::snapshot();
  EXPECT_EQ(snap.counters[static_cast<size_t>(metrics::Counter::kRgfSolves)], n);
  const auto& h =
      snap.histograms[static_cast<size_t>(metrics::Histogram::kPcgIterationsPerSolve)];
  EXPECT_EQ(h.count, n);
  EXPECT_DOUBLE_EQ(h.sum, 2.0 * static_cast<double>(n));
  metrics::reset();
}

/// A minimal but well-formed device table for serialization tests.
device::DeviceTable tiny_table() {
  device::DeviceTable t;
  t.vg = {0.0, 0.5};
  t.vd = {0.0, 0.25};
  t.current_A = {0.0, 1e-6, 0.0, 2e-6};
  t.charge_C = {1e-19, 2e-19, 3e-19, 4e-19};
  t.band_gap_eV = 0.6;
  return t;
}

TEST(TableWriterParallel, ConcurrentSavesToOnePathLeaveNoTempFiles) {
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_save_race_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "table.csv").string();
  const device::DeviceTable t = tiny_table();

  ThreadCountGuard threads(8);
  // Many concurrent writers to the same final path: each must stage under
  // a unique temp name (pid + thread id + counter), so every writer's
  // rename lands a complete file and no .tmp.* litter survives.
  par::parallel_for(32, [&](size_t) { device::save_table(t, path, "race-key"); });

  const device::DeviceTable r = device::load_table(path);
  EXPECT_EQ(r.vg, t.vg);
  EXPECT_EQ(r.current_A, t.current_A);
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().filename().string().find(".tmp."), std::string::npos)
        << "leftover temp file: " << entry.path();
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(TableWriterParallel, ConcurrentFailingSavesLeaveNoTempFiles) {
  // Same race, but every writer's stream write fails mid-file (injected via
  // RLIMIT_FSIZE — chmod tricks do not fail writes for root): each save
  // must clean up its own temp file on the error path, concurrently.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_save_fail_race_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "table.csv").string();
  device::DeviceTable t;
  t.vg.resize(100);
  t.vd.resize(40);
  for (size_t i = 0; i < t.vg.size(); ++i) t.vg[i] = 1e-3 * static_cast<double>(i);
  for (size_t i = 0; i < t.vd.size(); ++i) t.vd[i] = 1e-3 * static_cast<double>(i);
  t.current_A.assign(t.vg.size() * t.vd.size(), 1.0 / 3.0);
  t.charge_C.assign(t.vg.size() * t.vd.size(), -1e-19);

  struct rlimit old_limit {};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  struct rlimit tiny_limit = old_limit;
  tiny_limit.rlim_cur = 4096;  // the table body needs ~280 kB
  void (*old_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &tiny_limit), 0);

  ThreadCountGuard threads(8);
  std::atomic<int> failures{0};
  par::parallel_for(32, [&](size_t) {
    try {
      device::save_table(t, path, "fail-race-key");
    } catch (const std::runtime_error&) {
      failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  setrlimit(RLIMIT_FSIZE, &old_limit);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_EQ(failures.load(), 32);
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    ADD_FAILURE() << "leftover file after failed saves: " << entry.path();
  }
  EXPECT_EQ(files, 0u);
  std::filesystem::remove_all(dir);
}

TEST(CacheDirParallel, DirectoryIsStableUnderConcurrentCalls) {
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_cache_dir_test";
  std::filesystem::remove_all(dir);
  std::vector<std::string> results(64);
  {
    EnvGuard cache_dir("GNRFET_CACHE_DIR", dir.c_str());
    ThreadCountGuard threads(8);
    par::parallel_for(results.size(), [&](size_t i) { results[i] = cache::directory(); });
  }
  for (const auto& r : results) EXPECT_EQ(r, dir.string());
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  std::filesystem::remove_all(dir);
  // Default resolution (no override) is memoized: repeated calls agree.
  EXPECT_EQ(cache::directory(), cache::directory());
}

}  // namespace
