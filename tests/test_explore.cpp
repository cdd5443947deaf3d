#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cache.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "device/sweeps.hpp"
#include "device/tablegen.hpp"
#include "env_guard.hpp"
#include "explore/contours.hpp"
#include "explore/montecarlo.hpp"
#include "explore/tech_explore.hpp"
#include "explore/variants.hpp"
#include "synthetic_device.hpp"
#include "test_support.hpp"

namespace {

using namespace gnrfet;
using tests::EnvGuard;
using tests::ThreadCountGuard;
using tests::counter;

/// Cache path and key under which the kit resolves a variant: the standard
/// bias grid and the kit's spec convention (a nonzero charge is one
/// impurity at mid-channel).
struct StandardEntry {
  std::string path;
  std::string key;
};
StandardEntry standard_entry(const explore::VariantSpec& v) {
  device::DeviceSpec spec;
  spec.n_index = v.n_index;
  if (v.impurity_q != 0.0) spec.impurities.push_back({v.impurity_q, 1.0, 0.0, 0.4});
  const std::string key = device::table_cache_payload(spec, explore::standard_table_options());
  return {cache::path_for("device-table", key), key};
}

TEST(DesignKit, SetTableRejectsOverwrite) {
  // table() hands out references backed by map entries; replacing an entry
  // would invalidate them, so a second injection for the same variant must
  // be refused.
  explore::DesignKit kit;
  kit.set_table({12, 0.0}, synthetic::synthetic_table());
  EXPECT_THROW(kit.set_table({12, 0.0}, synthetic::synthetic_table()), std::logic_error);
}

TEST(VariationStudy, NominalAgainstItselfReadsZeroPercent) {
  // The study of the nominal variant against itself measures the nominal
  // inverter three times (nominal, 1 of 4 and 4 of 4 GNRs "varied"): each
  // must give the same bits, so every column reads exactly 0%.
  explore::DesignKit kit;
  kit.set_table({12, 0.0}, synthetic::synthetic_table());
  const std::vector<explore::VariantSpec> nominal = {{12, 0.0}};
  const explore::VariationStudy study = explore::run_variation_study(kit, nominal, nominal);
  ASSERT_TRUE(study.nominal.ok);
  ASSERT_EQ(study.entries.size(), 1u);
  const explore::VariationEntry& e = study.entries[0];
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(e.metrics[s].ok, study.nominal.ok) << s;
    EXPECT_EQ(bits(e.metrics[s].delay_s), bits(study.nominal.delay_s)) << s;
    EXPECT_EQ(bits(e.metrics[s].static_power_W), bits(study.nominal.static_power_W)) << s;
    EXPECT_EQ(bits(e.metrics[s].dynamic_power_W), bits(study.nominal.dynamic_power_W)) << s;
    EXPECT_EQ(bits(e.metrics[s].snm_V), bits(study.nominal.snm_V)) << s;
    EXPECT_EQ(bits(e.delay_pct[s]), bits(0.0)) << s;
    EXPECT_EQ(bits(e.static_power_pct[s]), bits(0.0)) << s;
    EXPECT_EQ(bits(e.dynamic_power_pct[s]), bits(0.0)) << s;
    EXPECT_EQ(bits(e.snm_pct[s]), bits(0.0)) << s;
  }
}

/// A nominal table on the standard VG axis (0..1 V, 0.05 V steps) whose VD
/// axis runs from 0 to 0.75 V in `vd_step` steps, sampled from one
/// analytic I(VG, VD): a smooth turn-on whose threshold rises 4 V per V of
/// VD, so the VD column VT0 is read at shows in its value.
device::DeviceTable shifted_threshold_table(double vd_step) {
  device::DeviceTable t;
  for (int i = 0; i <= 20; ++i) t.vg.push_back(0.05 * i);
  for (int i = 0; i * vd_step <= 0.75 + 1e-12; ++i) t.vd.push_back(vd_step * i);
  t.band_gap_eV = 0.6;
  for (const double vg : t.vg) {
    for (const double vd : t.vd) {
      t.current_A.push_back(1e-6 * (1.0 + std::tanh((vg - 4.0 * vd - 0.4) / 0.1)));
      t.charge_C.push_back(0.0);
    }
  }
  return t;
}

TEST(DesignKit, Vt0IsReadAtVd50mVWhateverTheVdStep) {
  explore::DesignKit coarse, fine;
  coarse.set_table({12, 0.0}, shifted_threshold_table(0.05));
  const device::DeviceTable fine_table = shifted_threshold_table(0.025);
  fine.set_table({12, 0.0}, fine_table);
  EXPECT_NEAR(coarse.vt0(), fine.vt0(), 0.05);
  // The fine table's first nonzero column (25 mV) puts VT0 more than one
  // VG step away: reading it there would fail the check above.
  std::vector<double> id_25mV;
  for (size_t ig = 0; ig < fine_table.vg.size(); ++ig) {
    id_25mV.push_back(fine_table.at_current(ig, 1));
  }
  EXPECT_GT(std::abs(device::extract_threshold_voltage(fine_table.vg, id_25mV) - fine.vt0()),
            0.05);

  // No column at 0.05 V: an error naming the axis, not a VT0 read elsewhere.
  explore::DesignKit off_grid;
  off_grid.set_table({12, 0.0}, shifted_threshold_table(0.03));
  try {
    off_grid.vt0();
    ADD_FAILURE() << "vt0() read a table with no 0.05 V column";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("VD axis"), std::string::npos) << e.what();
  }
}

TEST(DesignKit, FailedResolutionLeavesNoEntryAndRetries) {
  // Concurrent first uses of a variant whose cache directory cannot be
  // created (its path runs through a regular file) all get the error, and
  // the kit keeps no entry: once the path is mended, the same kit resolves
  // the table.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_kit_failed_resolution";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto blocker = dir / "blocker";
  std::ofstream(blocker) << "a regular file, not a directory\n";
  const auto cache_path = blocker / "cache";
  EnvGuard cache_dir("GNRFET_CACHE_DIR", cache_path.c_str());
  // The cache path must fail before any table work: a cache directory that
  // resolved would start a real N = 12 generation instead.
  ASSERT_THROW(cache::directory(), std::filesystem::filesystem_error);
  explore::DesignKit kit;
  {
    ThreadCountGuard threads(8);
    std::atomic<int> errors{0};
    par::parallel_for(8, [&](size_t) {
      try {
        kit.table({12, 0.0});
      } catch (const std::runtime_error&) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(errors.load(), 8);
  }
  std::filesystem::remove(blocker);
  const StandardEntry nominal = standard_entry({12, 0.0});
  const device::DeviceTable synthetic = synthetic::synthetic_table();
  device::save_table(synthetic, nominal.path, nominal.key);
  EXPECT_EQ(kit.table({12, 0.0}).current_A, synthetic.current_A);
  std::filesystem::remove_all(dir);
}

TEST(DesignKitParallel, ConcurrentFirstUseResolvesEachVariantOnce) {
  // 64 concurrent first uses of two cached variants on a fresh kit: each
  // variant is loaded from disk exactly once, and every caller of one
  // variant gets the same table.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_kit_first_use";
  std::filesystem::remove_all(dir);
  EnvGuard cache_dir("GNRFET_CACHE_DIR", dir.c_str());
  const explore::VariantSpec variants[2] = {{12, 0.0}, {12, -1.0}};
  const device::DeviceTable synthetic = synthetic::synthetic_table();
  for (const auto& v : variants) {
    const StandardEntry e = standard_entry(v);
    device::save_table(synthetic, e.path, e.key);
  }
  const uint64_t hits_before = counter(metrics::Counter::kTableCacheHits);
  const uint64_t misses_before = counter(metrics::Counter::kTableCacheMisses);
  explore::DesignKit kit;
  std::vector<const device::DeviceTable*> got(64);
  {
    ThreadCountGuard threads(8);
    par::parallel_for(got.size(), [&](size_t i) { got[i] = &kit.table(variants[i % 2]); });
  }
  EXPECT_NE(got[0], got[1]);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], got[i % 2]) << "call " << i;
  EXPECT_EQ(counter(metrics::Counter::kTableCacheHits) - hits_before, 2u);
  EXPECT_EQ(counter(metrics::Counter::kTableCacheMisses) - misses_before, 0u);
  EXPECT_EQ(got[1]->current_A, synthetic.current_A);
  std::filesystem::remove_all(dir);
}

TEST(RingDcStart, UnconvergedStartIsReported) {
  // Fig. 6 on the nine checked-in variant tables: the nominal ring's DC
  // start converges, but the first Monte Carlo ring's DC Newton 2-cycles
  // at the full clamp, so that ring is kicked from all zeros and its
  // sample must say so.
  const std::filesystem::path inputs = tests::benchmark_inputs_dir();
  if (inputs.empty()) GTEST_SKIP() << "not run from inside the source tree";
  explore::DesignKit kit;
  for (const int n : {9, 12, 15}) {
    for (const int q : {-1, 0, 1}) {
      const std::string name = "table-n" + std::to_string(n) + "-q" +
                               (q < 0 ? "m1" : q > 0 ? "p1" : "0") + ".csv";
      kit.set_table({n, static_cast<double>(q)}, device::load_table((inputs / name).string()));
    }
  }
  explore::MonteCarloOptions opts;
  opts.samples = 1;
  opts.ring.t_stop_s = 20e-12;
  opts.ring.dt_s = 0.5e-12;
  const explore::MonteCarloResult mc = explore::run_ring_monte_carlo(kit, opts);
  EXPECT_TRUE(mc.nominal.dc_start_converged);
  ASSERT_EQ(mc.samples.size(), 1u);
  EXPECT_FALSE(mc.samples[0].dc_start_converged);
}

TEST(Contours, CircleLevelSet) {
  // f(x,y) = x^2 + y^2 over [-1,1]^2; the 0.25 level is a circle of
  // radius 0.5: all segment endpoints must sit near that radius.
  std::vector<double> xs, ys;
  for (int i = 0; i <= 40; ++i) xs.push_back(-1.0 + 0.05 * i);
  ys = xs;
  std::vector<double> f(xs.size() * ys.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t j = 0; j < ys.size(); ++j) {
      f[i * ys.size() + j] = xs[i] * xs[i] + ys[j] * ys[j];
    }
  }
  const auto segs = explore::contour_segments(xs, ys, f, 0.25);
  EXPECT_GT(segs.size(), 20u);
  for (const auto& s : segs) {
    EXPECT_NEAR(std::hypot(s.x1, s.y1), 0.5, 0.03);
    EXPECT_NEAR(std::hypot(s.x2, s.y2), 0.5, 0.03);
  }
}

TEST(Contours, NoSegmentsWhenLevelOutsideRange) {
  std::vector<double> xs = {0, 1}, ys = {0, 1};
  std::vector<double> f = {0, 0, 0, 0};
  EXPECT_TRUE(explore::contour_segments(xs, ys, f, 5.0).empty());
}

TEST(MonteCarlo, DiscretizedNormalProbabilities) {
  std::mt19937 rng(7);
  int counts[3] = {0, 0, 0};
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[explore::draw_discretized_normal(rng) + 1]++;
  EXPECT_NEAR(counts[0] / double(n), 0.3085, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.3829, 0.01);
  EXPECT_NEAR(counts[2] / double(n), 0.3085, 0.01);
}

TEST(MonteCarlo, HistogramCountsAllValues) {
  const std::vector<double> v = {0.0, 0.1, 0.2, 0.5, 0.9, 1.0, 1.0};
  const auto h = explore::histogram(v, 4);
  int total = 0;
  for (const int c : h.counts) total += c;
  EXPECT_EQ(total, 7);
  ASSERT_EQ(h.bin_centers.size(), 4u);
  EXPECT_LT(h.bin_centers.front(), h.bin_centers.back());
}

TEST(OperatingPoints, SelectionLogicOnSyntheticGrid) {
  // Synthetic plane: EDP grows with vdd, frequency with vdd, SNM with vdd
  // and (weakly) with vt.
  std::vector<explore::ExplorePoint> grid;
  for (double vdd = 0.2; vdd <= 0.61; vdd += 0.1) {
    for (double vt = 0.05; vt <= 0.26; vt += 0.05) {
      explore::ExplorePoint p;
      p.ok = true;
      p.vdd = vdd;
      p.vt = vt;
      p.frequency_Hz = 12e9 * vdd * (1.0 - vt);
      p.edp_Js = 1e-27 * (vdd * vdd) * (1.0 + vt);
      p.snm_V = 0.4 * vdd * (0.5 + vt);
      grid.push_back(p);
    }
  }
  const auto pts = explore::find_operating_points(grid, 3e9, 0.08);
  ASSERT_TRUE(pts.a.ok);
  ASSERT_TRUE(pts.b.ok);
  EXPECT_GE(pts.a.frequency_Hz, 3e9);
  EXPECT_GE(pts.b.frequency_Hz, 3e9);
  EXPECT_GE(pts.b.snm_V, 0.08);
  // A ignores the SNM constraint, so its EDP can only be <= B's.
  EXPECT_LE(pts.a.edp_Js, pts.b.edp_Js + 1e-40);
  // C never decreases VT relative to B.
  EXPECT_GE(pts.c.vt, pts.b.vt);
}

TEST(StandardTableOptions, MatchesCacheContract) {
  const auto opts = explore::standard_table_options();
  EXPECT_EQ(opts.vg_points, 21u);
  EXPECT_EQ(opts.vd_points, 16u);
  EXPECT_DOUBLE_EQ(opts.vg_max, 1.0);
  EXPECT_DOUBLE_EQ(opts.vd_max, 0.75);
}

TEST(StandardTableOptions, DefaultCacheKeysArePinned) {
  // Literal cache payloads of two standard variants. Every cached and
  // checked-in default table is stored under these keys, so any change to
  // them turns the whole table cache cold.
  const auto opts = explore::standard_table_options();
  device::DeviceSpec nominal;
  device::DeviceSpec charged;
  charged.impurities.push_back({-1.0, 1.0, 0.0, 0.4});
  EXPECT_EQ(device::table_cache_payload(nominal, opts),
            "N=12;L=15;tox=1.5;eps=3.9;t=2.7;delta=0.12;gamma=1;modes=3;cm=0.3;lm=3;h=0.25"
            "|vg[0,1,21]vd[0,0.75,16]de=0.0025000000000000001;eta=0.001;"
            "kT=0.025850000000000001;gtol=0.0015;gmax=40;poisson=cap-ew");
  EXPECT_EQ(device::table_cache_payload(charged, opts),
            "N=12;L=15;tox=1.5;eps=3.9;t=2.7;delta=0.12;gamma=1;modes=3;cm=0.3;lm=3;h=0.25;"
            "imp(-1,1,0,0.4)"
            "|vg[0,1,21]vd[0,0.75,16]de=0.0025000000000000001;eta=0.001;"
            "kT=0.025850000000000001;gtol=0.0015;gmax=40;poisson=cap-ew");
}

}  // namespace
