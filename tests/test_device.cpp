#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "common/cache.hpp"
#include "common/contracts.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "device/geometry.hpp"
#include "device/selfconsistent.hpp"
#include "device/sweeps.hpp"
#include "device/tablegen.hpp"
#include "env_guard.hpp"
#include "golden.hpp"
#include "support/poisson_oracles.hpp"
#include "test_support.hpp"

namespace {

using namespace gnrfet;
using namespace gnrfet::device;
using tests::EnvGuard;
using tests::fnv1a;
using tests::counter;

/// Small, coarse device for fast tests (short channel, coarse mesh and
/// energy grid) — still a real self-consistent NEGF-Poisson solve.
DeviceSpec tiny_spec(int n_index = 12) {
  DeviceSpec s;
  s.n_index = n_index;
  s.channel_length_nm = 6.0;
  s.grid_step_nm = 0.35;
  s.lateral_margin_nm = 2.0;
  s.num_modes = 2;
  return s;
}

SolveOptions fast_opts() {
  SolveOptions o;
  o.energy_step_eV = 5e-3;
  o.gummel_tolerance_V = 3e-3;
  return o;
}

TEST(DeviceGeometry, GridAndLatticeAreConsistent) {
  const DeviceGeometry geo(tiny_spec());
  const auto& g = geo.domain().spec();
  // GNR plane z = 0 must be a grid plane.
  bool has_zero = false;
  for (size_t k = 0; k < g.nz; ++k) {
    if (std::abs(g.z(k)) < 1e-9) has_zero = true;
  }
  EXPECT_TRUE(has_zero);
  // Columns must lie strictly inside the Poisson domain.
  for (size_t c = 0; c < geo.lattice().column_x_nm().size(); ++c) {
    EXPECT_GT(geo.column_x(c), 0.0);
    EXPECT_LT(geo.column_x(c), g.x(g.nx - 1));
  }
  // Four electrodes: source, drain, bottom gate, top gate.
  EXPECT_EQ(geo.domain().num_electrodes(), 4);
  EXPECT_EQ(geo.electrode_voltages(0.0, 0.5, 0.3), (std::vector<double>{0.0, 0.5, 0.3, 0.3}));
}

TEST(DeviceGeometry, ImpurityChargeIsDeposited) {
  DeviceSpec s = tiny_spec();
  s.impurities.push_back({-2.0, 1.0, 0.0, 0.4});
  const DeviceGeometry geo(s);
  double total = 0.0;
  for (const double v : geo.impurity_charge()) total += v;
  EXPECT_NEAR(total, -2.0, 1e-9);
}

TEST(DeviceSpec, CacheKeyDistinguishesConfigs) {
  DeviceSpec a = tiny_spec();
  DeviceSpec b = tiny_spec();
  EXPECT_EQ(a.cache_key(), b.cache_key());
  b.impurities.push_back({1.0, 1.0, 0.0, 0.4});
  EXPECT_NE(a.cache_key(), b.cache_key());
  DeviceSpec c = tiny_spec(15);
  EXPECT_NE(a.cache_key(), c.cache_key());
}

TEST(DeviceSpec, GeometryKeyIsExactAndIgnoresImpurities) {
  // The capacitance memo's key: impurities do not enter it, and unlike the
  // 10-digit cache key it tells apart values that differ in the last bit.
  DeviceSpec a = tiny_spec();
  DeviceSpec b = tiny_spec();
  b.impurities.push_back({-2.0, 1.0, 0.0, 0.4});
  EXPECT_EQ(a.geometry_key(), b.geometry_key());
  b.grid_step_nm = std::nextafter(a.grid_step_nm, 1.0);
  b.impurities.clear();
  EXPECT_EQ(a.cache_key(), b.cache_key());
  EXPECT_NE(a.geometry_key(), b.geometry_key());
  EXPECT_NE(a.geometry_key(), tiny_spec(15).geometry_key());
}

TEST(DeviceSpec, DefaultGeometryKeyIsPinned) {
  // Every field of the paper device at max_digits10, the fixed gate stack,
  // tight-binding and contact values included: a last-bit change to any of
  // them changes this key, and with it every table cache key.
  EXPECT_EQ(DeviceSpec{}.geometry_key(),
            "N=12;L=15;tox=1.5;eps=3.8999999999999999;t=2.7000000000000002;delta=0.12;"
            "gamma=1;modes=3;cm=0.29999999999999999;lm=3;h=0.25");
}

TEST(SelfConsistent, ConvergesAndIsAmbipolar) {
  const DeviceGeometry geo(tiny_spec());
  const SelfConsistentSolver solver(geo, fast_opts());
  const DeviceSolution on = solver.solve({0.5, 0.5});
  ASSERT_TRUE(on.converged);
  EXPECT_GT(on.current_A, 1e-8);
  const DeviceSolution mid = solver.solve({0.25, 0.5}, &on);
  ASSERT_TRUE(mid.converged);
  const DeviceSolution low = solver.solve({0.0, 0.5}, &mid);
  ASSERT_TRUE(low.converged);
  // Ambipolar: minimum leakage near VG = VD/2, hole branch rises again.
  EXPECT_LT(mid.current_A, on.current_A);
  EXPECT_GT(low.current_A, mid.current_A);
}

TEST(SelfConsistent, ZeroDrainBiasZeroCurrent) {
  const DeviceGeometry geo(tiny_spec());
  const SelfConsistentSolver solver(geo, fast_opts());
  const DeviceSolution sol = solver.solve({0.4, 0.0});
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.current_A, 0.0, 1e-12);
}

TEST(SelfConsistent, WarmStartReducesIterations) {
  const DeviceGeometry geo(tiny_spec());
  const SelfConsistentSolver solver(geo, fast_opts());
  const DeviceSolution cold = solver.solve({0.4, 0.4});
  const DeviceSolution warm = solver.solve({0.45, 0.4}, &cold);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(SelfConsistent, UnconvergedGummelAndPoissonNewtonAreCounted) {
  // A solve that runs out of iterations keeps its result (no behaviour
  // change) but must show up in the failure counters.
  const DeviceGeometry geo(tiny_spec());
  SolveOptions opts = fast_opts();
  opts.max_gummel_iterations = 1;
  const uint64_t gummel_before = counter(metrics::Counter::kGummelUnconverged);
  const DeviceSolution sol = SelfConsistentSolver(geo, opts).solve({0.5, 0.5});
  EXPECT_FALSE(sol.converged);
  EXPECT_EQ(sol.iterations, 1);
  EXPECT_EQ(counter(metrics::Counter::kGummelUnconverged), gummel_before + 1);

  // One damped Newton step from phi = 0 towards 0.5 V electrodes moves the
  // potential by the full 0.1 V clamp, far above the 1e-5 V tolerance.
  poisson::NonlinearOptions popt;
  popt.max_newton_iterations = 1;
  const size_t nodes = geo.domain().spec().num_nodes();
  const std::vector<double> zeros(nodes, 0.0);
  const uint64_t newton_before = counter(metrics::Counter::kPoissonNewtonUnconverged);
  const poisson::NonlinearResult pres = poisson::PoissonSolver(geo.domain()).solve_nonlinear(
      geo.electrode_voltages(0.0, 0.5, 0.5), zeros, zeros, geo.impurity_charge(), zeros, zeros,
      popt);
  EXPECT_FALSE(pres.converged);
  EXPECT_EQ(pres.iterations, 1);
  EXPECT_EQ(counter(metrics::Counter::kPoissonNewtonUnconverged), newton_before + 1);
  // The capacitance-matrix solve the Gummel loop runs counts the same way:
  // its Newton iteration, the unconverged solve, one histogram sample.
  const SelfConsistentSolver solver(geo, fast_opts());
  const std::vector<double> zeros_s(solver.capacitance().size(), 0.0);
  const uint64_t reduced_before = counter(metrics::Counter::kPoissonNewtonUnconverged);
  const uint64_t iterations_before = counter(metrics::Counter::kPoissonNewtonIterations);
  const auto histogram_count = [] {
    return metrics::snapshot()
        .histograms[static_cast<size_t>(metrics::Histogram::kNewtonIterationsPerSolve)]
        .count;
  };
  const uint64_t samples_before = histogram_count();
  const poisson::ReducedResult rres = solver.capacitance().solve_nonlinear(
      geo.electrode_voltages(0.0, 0.5, 0.5), zeros_s, zeros_s, zeros_s, zeros_s, popt);
  EXPECT_FALSE(rres.converged);
  EXPECT_EQ(rres.iterations, 1);
  EXPECT_EQ(rres.last_update_V, poisson::kMaxNewtonStep_V);
  EXPECT_EQ(counter(metrics::Counter::kPoissonNewtonUnconverged), reduced_before + 1);
  EXPECT_EQ(counter(metrics::Counter::kPoissonNewtonIterations), iterations_before + 1);
  EXPECT_EQ(histogram_count(), samples_before + 1);
  // A converged solve leaves both counters alone.
  const uint64_t gummel_mid = counter(metrics::Counter::kGummelUnconverged);
  const uint64_t newton_mid = counter(metrics::Counter::kPoissonNewtonUnconverged);
  ASSERT_TRUE(SelfConsistentSolver(geo, fast_opts()).solve({0.5, 0.5}).converged);
  EXPECT_EQ(counter(metrics::Counter::kGummelUnconverged), gummel_mid);
  EXPECT_EQ(counter(metrics::Counter::kPoissonNewtonUnconverged), newton_mid);
}

TEST(SelfConsistent, WarmStartGridMismatchIsContractViolation) {
  // A warm start from a solution on a different grid used to be copied in
  // silently and crash (or worse, converge to garbage) deep inside the
  // Gummel loop; it must be rejected at the boundary with both sizes named.
  const DeviceGeometry geo(tiny_spec());
  const SelfConsistentSolver solver(geo, fast_opts());
  DeviceSolution wrong;
  wrong.converged = true;
  wrong.phi_charge_nodes.assign(17, 0.0);  // not this geometry's charge-node count
  try {
    solver.solve({0.4, 0.4}, &wrong);
    FAIL() << "expected a ContractViolation for mismatched warm-start grid";
  } catch (const contracts::ContractViolation& v) {
    const std::string what = v.what();
    EXPECT_NE(what.find("warm-start-grid-match"), std::string::npos) << what;
    EXPECT_NE(what.find("17"), std::string::npos) << what;
  }
}

TEST(SelfConsistent, BandProfilePinnedAtContacts) {
  const DeviceGeometry geo(tiny_spec());
  const SelfConsistentSolver solver(geo, fast_opts());
  const DeviceSolution sol = solver.solve({0.5, 0.5});
  // Mid-gap near the source contact approaches the source Fermi level (0);
  // near the drain it approaches -VD. The gate pushes the interior down.
  EXPECT_NEAR(sol.midgap_profile_eV.front(), 0.0, 0.15);
  EXPECT_NEAR(sol.midgap_profile_eV.back(), -0.5, 0.2);
  double interior_min = 1e9;
  for (const double u : sol.midgap_profile_eV) interior_min = std::min(interior_min, u);
  EXPECT_LT(interior_min, -0.3);
}

TEST(SelfConsistent, ImpurityPolarityShiftsSchottkyBarrier) {
  DeviceSpec sm = tiny_spec();
  sm.impurities.push_back({-2.0, 1.0, 0.0, 0.4});
  DeviceSpec sp = tiny_spec();
  sp.impurities.push_back({2.0, 1.0, 0.0, 0.4});
  const SolveOptions opts = fast_opts();
  const DeviceSolution ideal = SelfConsistentSolver(DeviceGeometry(tiny_spec()), opts).solve({0.5, 0.5});
  const DeviceSolution neg = SelfConsistentSolver(DeviceGeometry(sm), opts).solve({0.5, 0.5});
  const DeviceSolution pos = SelfConsistentSolver(DeviceGeometry(sp), opts).solve({0.5, 0.5});
  // The negative impurity raises the source Schottky barrier and cuts the
  // n-branch on-current; the positive one lowers/thins the barrier.
  EXPECT_LT(neg.current_A, 0.9 * ideal.current_A);
  EXPECT_GT(neg.current_A, 0.0);
  EXPECT_GT(pos.current_A, ideal.current_A);
}

TEST(Sweeps, ThresholdExtractionOnKnownCurve) {
  // Piecewise-linear "transistor": I = gm * (vg - 0.3) above threshold.
  std::vector<double> vg, id;
  for (int i = 0; i <= 20; ++i) {
    const double v = 0.05 * i;
    vg.push_back(v);
    id.push_back(v < 0.3 ? 1e-9 : 2e-5 * (v - 0.3));
  }
  EXPECT_NEAR(device::extract_threshold_voltage(vg, id), 0.3, 0.06);
}

TEST(Sweeps, VoltageAxis) {
  const auto v = voltage_axis(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
  EXPECT_DOUBLE_EQ(v[4], 1.0);
  EXPECT_THROW(voltage_axis(0, 1, 1), std::invalid_argument);
}

TEST(TableGen, SaveLoadRoundTrip) {
  DeviceTable t;
  t.vg = {0.0, 0.1, 0.2};
  t.vd = {0.0, 0.5};
  t.band_gap_eV = 0.61;
  for (size_t i = 0; i < 6; ++i) {
    t.current_A.push_back(1e-6 * static_cast<double>(i));
    t.charge_C.push_back(-1e-19 * static_cast<double>(i));
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnrfet_table_test.csv").string();
  save_table(t, path, "test-key");
  const DeviceTable r = load_table(path);
  EXPECT_EQ(r.vg.size(), 3u);
  EXPECT_EQ(r.vd.size(), 2u);
  EXPECT_NEAR(r.band_gap_eV, 0.61, 1e-9);
  EXPECT_DOUBLE_EQ(r.at_current(2, 1), t.at_current(2, 1));
  EXPECT_DOUBLE_EQ(r.at_charge(1, 0), t.at_charge(1, 0));
  std::filesystem::remove(path);
}

TEST(TableGen, LoadRejectsMissingSizeMetadata) {
  // A cache file truncated before its metadata block must produce a clear
  // error naming the missing field, not std::stoul's bare invalid_argument.
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnrfet_table_missing_meta.csv").string();
  {
    std::ofstream out(path);
    out << "# band_gap_eV = 0.6\n";
    out << "vg,vd,current_A,charge_C\n";
    out << "0,0,1e-6,-1e-19\n";
  }
  try {
    load_table(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nvg"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(TableGen, LoadRejectsMalformedSizeMetadata) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnrfet_table_bad_meta.csv").string();
  {
    std::ofstream out(path);
    out << "# nvg = banana\n";
    out << "# nvd = 2\n";
    out << "vg,vd,current_A,charge_C\n";
    out << "0,0,1e-6,-1e-19\n";
    out << "0,0.5,2e-6,-2e-19\n";
  }
  try {
    load_table(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(TableGen, LoadRejectsRowCountMismatch) {
  // A writer killed mid-stream leaves fewer rows than nvg*nvd promises;
  // with the atomic-rename save this can only happen to hand-edited files,
  // but the loader must still refuse them loudly.
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnrfet_table_torn.csv").string();
  {
    std::ofstream out(path);
    out << "# nvg = 3\n# nvd = 2\n";
    out << "vg,vd,current_A,charge_C\n";
    out << "0,0,1e-6,-1e-19\n";
  }
  EXPECT_THROW(load_table(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TableGen, SaveLeavesNoTempFileBehind) {
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_atomic_save_test";
  std::filesystem::create_directories(dir);
  DeviceTable t;
  t.vg = {0.0, 0.1};
  t.vd = {0.0};
  t.current_A = {0.0, 1e-6};
  t.charge_C = {0.0, -1e-19};
  save_table(t, (dir / "table.csv").string(), "key");
  size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(e.path().filename().string(), "table.csv");
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

/// FNV-1a fingerprint of the raw bits of a double vector: two vectors hash
/// equal iff they are bit-for-bit identical (1e-16-close is not enough).
std::string bits_hash(const std::vector<double>& v) {
  return strings::hash_hex(
      std::string(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double)));
}

TEST(TableGen, CsvRoundTripIsBitExact) {
  // Values with no finite decimal expansion: at the old precision(12) the
  // save/load round trip flipped low-order mantissa bits, so a table served
  // from the disk cache differed bitwise from the freshly generated one.
  DeviceTable t;
  t.vg = {0.0, 1.0 / 3.0, std::sqrt(2.0) / 2.0};
  t.vd = {0.1 / 3.0, std::exp(1.0) / 4.0};
  t.band_gap_eV = 0.61234567890123456;
  for (size_t i = 0; i < 6; ++i) {
    const double x = static_cast<double>(i) + 1.0;
    t.current_A.push_back(1e-6 / (3.0 * x));
    t.charge_C.push_back(-1e-19 * std::sqrt(x));
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnrfet_table_bitexact.csv").string();
  save_table(t, path, "bitexact-key");
  const DeviceTable r = load_table(path);
  EXPECT_EQ(bits_hash(r.vg), bits_hash(t.vg));
  EXPECT_EQ(bits_hash(r.vd), bits_hash(t.vd));
  EXPECT_EQ(bits_hash(r.current_A), bits_hash(t.current_A));
  EXPECT_EQ(bits_hash(r.charge_C), bits_hash(t.charge_C));
  EXPECT_EQ(bits_hash({r.band_gap_eV}), bits_hash({t.band_gap_eV}));
  std::filesystem::remove(path);
}

TEST(TableGen, CacheHitMatchesMissBitExact) {
  // The full pipeline promise: generating cold and re-loading the result
  // through the cache must produce the same table down to the last bit.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_cache_bitexact";
  std::filesystem::remove_all(dir);
  EnvGuard guard("GNRFET_CACHE_DIR", dir.c_str());
  TableGenOptions opts;
  opts.vg_points = 2;
  opts.vd_points = 2;
  opts.vg_max = 0.5;
  opts.vd_max = 0.5;
  opts.solve = fast_opts();
  const DeviceSpec spec = tiny_spec();
  const auto hits_of = [] {
    return metrics::snapshot().counters[static_cast<size_t>(metrics::Counter::kTableCacheHits)];
  };
  const uint64_t hits_before = hits_of();
  const DeviceTable cold = generate_device_table(spec, opts);
  EXPECT_EQ(hits_of(), hits_before);  // first generation was a miss
  const DeviceTable warm = generate_device_table(spec, opts);
  EXPECT_EQ(hits_of(), hits_before + 1);  // second came from the disk cache
  EXPECT_EQ(bits_hash(warm.vg), bits_hash(cold.vg));
  EXPECT_EQ(bits_hash(warm.vd), bits_hash(cold.vd));
  EXPECT_EQ(bits_hash(warm.current_A), bits_hash(cold.current_A));
  EXPECT_EQ(bits_hash(warm.charge_C), bits_hash(cold.charge_C));
  EXPECT_EQ(bits_hash({warm.band_gap_eV}), bits_hash({cold.band_gap_eV}));
  std::filesystem::remove_all(dir);
}

TEST(TableGen, UnconvergedTableIsReturnedButNotCached) {
  // A bias point that runs out of Gummel iterations must not be cached:
  // the cache would serve the stale iterate forever. The in-memory table is
  // still returned; with the default iteration budget the file is written.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_cache_unconverged";
  std::filesystem::remove_all(dir);
  EnvGuard guard("GNRFET_CACHE_DIR", dir.c_str());
  TableGenOptions opts;
  opts.vg_points = 2;
  opts.vd_points = 2;
  opts.vg_max = 0.5;
  opts.vd_max = 0.5;
  opts.solve = fast_opts();
  opts.solve.max_gummel_iterations = 1;
  const DeviceSpec spec = tiny_spec();
  const auto unconverged = [] {
    return metrics::snapshot().counters[static_cast<size_t>(metrics::Counter::kGummelUnconverged)];
  };
  const uint64_t before = unconverged();
  const DeviceTable table = generate_device_table(spec, opts);
  EXPECT_GT(unconverged(), before);
  EXPECT_EQ(table.current_A.size(), 4u);
  EXPECT_FALSE(std::filesystem::exists(
      cache::path_for("device-table", table_cache_payload(spec, opts))));

  opts.solve.max_gummel_iterations = SolveOptions{}.max_gummel_iterations;
  const uint64_t converged_before = unconverged();
  generate_device_table(spec, opts);
  EXPECT_EQ(unconverged(), converged_before);
  EXPECT_TRUE(std::filesystem::exists(
      cache::path_for("device-table", table_cache_payload(spec, opts))));
  std::filesystem::remove_all(dir);
}

TEST(TableGen, LoadRejectsSignedOrPaddedSizeMetadata) {
  // std::stoul accepts leading whitespace and a sign — "-3" wraps to ~2^64,
  // which then drove resize() toward a multi-exabyte allocation. The parser
  // must reject anything but plain digits. (Outer whitespace is trimmed by
  // the CSV metadata parser before it gets here; inner whitespace is not.)
  for (const char* bad : {"-3", "+3", "3 3", "0"}) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "gnrfet_table_signed_meta.csv").string();
    {
      std::ofstream out(path);
      out << "# nvg = " << bad << "\n";
      out << "# nvd = 2\n";
      out << "vg,vd,current_A,charge_C\n";
      out << "0,0,1e-6,-1e-19\n";
      out << "0,0.5,2e-6,-2e-19\n";
    }
    try {
      load_table(path);
      FAIL() << "expected std::runtime_error for nvg = '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("nvg"), std::string::npos) << e.what();
    }
    std::filesystem::remove(path);
  }
}

TEST(TableGen, LoadRejectsOverflowingSizeProduct) {
  // nvg*nvd wrapping size_t could alias the actual row count; the product
  // must be bounded before it feeds the row-count check and resize().
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnrfet_table_overflow_meta.csv").string();
  {
    std::ofstream out(path);
    out << "# nvg = 9223372036854775809\n";  // 2^63 + 1
    out << "# nvd = 4\n";
    out << "vg,vd,current_A,charge_C\n";
    out << "0,0,1e-6,-1e-19\n";
  }
  try {
    load_table(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(TableGen, LoadRejectsInconsistentAxisRows) {
  // Every row restates its axis coordinates; a disagreeing row means the
  // file body is scrambled and must not silently overwrite the axis.
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnrfet_table_bad_axis.csv").string();
  {
    std::ofstream out(path);
    out << "# nvg = 2\n# nvd = 2\n";
    out << "vg,vd,current_A,charge_C\n";
    out << "0,0,1e-6,-1e-19\n";
    out << "0,0.5,2e-6,-2e-19\n";
    out << "0.1,0,3e-6,-3e-19\n";
    out << "0.1,0.25,4e-6,-4e-19\n";  // vd disagrees with row 1's axis entry
  }
  try {
    load_table(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("disagrees"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("vd"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(TableGen, PayloadDistinguishesNearbyBiasValues) {
  // Two option sets whose vg_max differs by one ulp must key distinct cache
  // entries; at the old precision(10) they collided onto one key and the
  // second configuration silently got the first one's table.
  const DeviceSpec spec = tiny_spec();
  TableGenOptions a;
  TableGenOptions b = a;
  b.vg_max = std::nextafter(a.vg_max, 1.0);
  EXPECT_NE(table_cache_payload(spec, a), table_cache_payload(spec, b));
  // Sanity: identical options still agree.
  EXPECT_EQ(table_cache_payload(spec, a), table_cache_payload(spec, TableGenOptions{}));
}

TEST(TableGen, PayloadCarriesPoissonSolverToken) {
  // Tables cached by the full-grid Newton Poisson path keyed without the
  // token, and the exact-CG capacitance path with ";poisson=cap"; today's
  // inexact-Newton solve moves their bits, so its keys must differ and
  // those entries regenerate instead of being served.
  const DeviceSpec spec = tiny_spec();
  const std::string payload = table_cache_payload(spec, TableGenOptions{});
  const std::string token = ";poisson=cap-ew";
  ASSERT_GE(payload.size(), token.size()) << payload;
  EXPECT_EQ(payload.substr(payload.size() - token.size()), token) << payload;
}

TEST(TableGen, SaveFailureLeavesNoTempLitter) {
  // Inject a mid-stream write failure with a file-size rlimit (running as
  // root, permission tricks do not fail writes): the save must remove its
  // temp file and rethrow naming the final path.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_save_fail_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  DeviceTable t;
  t.vg.resize(200);
  t.vd.resize(50);
  for (size_t i = 0; i < t.vg.size(); ++i) t.vg[i] = 1e-3 * static_cast<double>(i);
  for (size_t i = 0; i < t.vd.size(); ++i) t.vd[i] = 1e-3 * static_cast<double>(i);
  t.current_A.assign(t.vg.size() * t.vd.size(), 1.0 / 3.0);
  t.charge_C.assign(t.vg.size() * t.vd.size(), -1e-19);
  struct rlimit old_limit {};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  struct rlimit tiny_limit = old_limit;
  tiny_limit.rlim_cur = 4096;  // far below the ~700 kB this table needs
  void (*old_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);  // EFBIG, not a kill
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &tiny_limit), 0);
  const std::string path = (dir / "table.csv").string();
  try {
    save_table(t, path, "litter-key");
    ADD_FAILURE() << "expected save_table to fail under RLIMIT_FSIZE";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
  setrlimit(RLIMIT_FSIZE, &old_limit);
  std::signal(SIGXFSZ, old_handler);
  // No final file and, crucially, no .tmp.* litter.
  size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    ++entries;
    ADD_FAILURE() << "unexpected file left behind: " << e.path();
  }
  EXPECT_EQ(entries, 0u);
  std::filesystem::remove_all(dir);
}

TEST(TableGen, LoadRejectsMissingOrMalformedBandGap) {
  // A missing band gap used to load as 0 eV without a word; it is now an
  // error naming the file and field, like a bad nvg/nvd.
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnrfet_table_bad_gap.csv").string();
  for (const char* gap_line : {"", "# band_gap_eV = 0.6eV\n", "# band_gap_eV = gap\n"}) {
    {
      std::ofstream out(path);
      out << gap_line << "# nvg = 1\n# nvd = 2\n";
      out << "vg,vd,current_A,charge_C\n";
      out << "0,0,0,-1e-19\n";
      out << "0,0.5,2e-6,-2e-19\n";
    }
    try {
      load_table(path);
      FAIL() << "accepted band gap line '" << gap_line << "'";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("band_gap_eV"), std::string::npos) << what;
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(*gap_line ? "malformed" : "missing"), std::string::npos) << what;
    }
  }
  std::filesystem::remove(path);
}

TEST(TableGen, CheckedInBenchmarkInputsLoad) {
  // The strict loader must still read every table the repository ships.
  const std::filesystem::path inputs = tests::benchmark_inputs_dir();
  if (inputs.empty()) GTEST_SKIP() << "not run from inside the source tree";
  size_t loaded = 0;
  for (const auto& e : std::filesystem::directory_iterator(inputs)) {
    if (e.path().extension() != ".csv") continue;
    const DeviceTable t = load_table(e.path().string());
    EXPECT_GT(t.band_gap_eV, 0.0) << e.path();
    ++loaded;
  }
  EXPECT_EQ(loaded, 9u);
}

TEST(TableGen, ConcurrentSavesOfOnePathLeaveOneWholeFile) {
  // Eight writers race on one cache path, each with its own table: the
  // atomic rename must leave exactly one of them, whole and bit-exact —
  // never a mix of two writers' rows — and no temp file.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_save_one_path";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "table.csv").string();
  std::vector<DeviceTable> tables(8);
  for (size_t w = 0; w < tables.size(); ++w) {
    DeviceTable& t = tables[w];
    t.vg = {0.0, 0.05, 0.1, 0.15};
    t.vd = {0.0, 0.25, 0.5};
    t.band_gap_eV = 0.6 + 0.01 * static_cast<double>(w);
    for (size_t i = 0; i < 12; ++i) {
      t.current_A.push_back(static_cast<double>(w + 1) / (3.0 * static_cast<double>(i + 1)));
      t.charge_C.push_back(-1e-19 * std::sqrt(static_cast<double>(w + i + 2)));
    }
  }
  std::vector<std::thread> writers;
  for (size_t w = 0; w < tables.size(); ++w) {
    writers.emplace_back([&, w] {
      for (int rep = 0; rep < 8; ++rep) save_table(tables[w], path, "race-key");
    });
  }
  for (auto& t : writers) t.join();

  const DeviceTable r = load_table(path);
  size_t matches = 0;
  for (const DeviceTable& t : tables) {
    if (bits_hash(r.current_A) == bits_hash(t.current_A)) {
      ++matches;
      EXPECT_EQ(bits_hash(r.charge_C), bits_hash(t.charge_C));
      EXPECT_EQ(bits_hash({r.band_gap_eV}), bits_hash({t.band_gap_eV}));
      EXPECT_EQ(bits_hash(r.vg), bits_hash(t.vg));
      EXPECT_EQ(bits_hash(r.vd), bits_hash(t.vd));
    }
  }
  EXPECT_EQ(matches, 1u) << "the final file is not one writer's whole table";
  size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(e.path().filename().string(), "table.csv") << "leftover file: " << e.path();
  }
  EXPECT_EQ(files, 1u);
  std::filesystem::remove_all(dir);
}

TEST(TableGen, TinyEndToEndGeneration) {
  // Full pipeline on a 2x2 bias grid with the tiny device; exercises the
  // warm-started grid walk and the charge sign convention.
  TableGenOptions opts;
  opts.vg_points = 2;
  opts.vd_points = 2;
  opts.vg_max = 0.5;
  opts.vd_max = 0.5;
  opts.solve = fast_opts();
  opts.use_cache = false;
  DeviceSpec spec = tiny_spec();
  const DeviceTable t = generate_device_table(spec, opts);
  EXPECT_EQ(t.current_A.size(), 4u);
  // I(VD=0) = 0; I grows with VD at fixed VG.
  EXPECT_NEAR(t.at_current(1, 0), 0.0, 1e-12);
  EXPECT_GT(t.at_current(1, 1), 0.0);
  // On state holds electrons: negative channel charge at high VG.
  EXPECT_LT(t.at_charge(1, 1), 0.0);
}

TEST(TableGen, UncachedGenerationNeedsNoCacheDirectory) {
  // GNRFET_CACHE_DIR below a regular file cannot be created. An uncached
  // generation never names a cache entry, so it neither throws nor creates
  // anything there.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_uncached_generation";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto file = dir / "not_a_directory";
  { std::ofstream(file) << "x"; }
  const auto cache_dir = file / "sub";
  EnvGuard guard("GNRFET_CACHE_DIR", cache_dir.c_str());
  ASSERT_THROW(cache::directory(), std::filesystem::filesystem_error);
  TableGenOptions opts;
  opts.vg_points = 2;
  opts.vd_points = 2;
  opts.vg_max = 0.5;
  opts.vd_max = 0.5;
  opts.solve = fast_opts();
  opts.use_cache = false;
  DeviceTable t;
  ASSERT_NO_THROW(t = generate_device_table(tiny_spec(), opts));
  EXPECT_EQ(t.current_A.size(), 4u);
  EXPECT_TRUE(std::filesystem::is_regular_file(file));
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  std::filesystem::remove_all(dir);
}

TEST(TableGen, CorruptCacheEntryIsRegeneratedAndReplaced) {
  // A header-only file at the entry's key is never served: the table is
  // generated again, bit-identical to an uncached run, and replaces the
  // file, so the next call is a plain cache hit.
  const auto dir = std::filesystem::temp_directory_path() / "gnrfet_corrupt_cache_entry";
  std::filesystem::remove_all(dir);
  EnvGuard cache_dir("GNRFET_CACHE_DIR", dir.c_str());
  TableGenOptions opts;
  opts.vg_points = 2;
  opts.vd_points = 2;
  opts.vg_max = 0.5;
  opts.vd_max = 0.5;
  opts.solve = fast_opts();
  const DeviceSpec spec = tiny_spec();
  const std::string path = cache::path_for("device-table", table_cache_payload(spec, opts));
  {
    std::ofstream out(path);
    out << "vg,vd,current_A,charge_C\n";
  }
  ASSERT_THROW(load_table(path), std::runtime_error);
  const uint64_t replaced_before = counter(metrics::Counter::kTableCacheCorruptReplaced);
  const uint64_t hits_before = counter(metrics::Counter::kTableCacheHits);

  const DeviceTable regenerated = generate_device_table(spec, opts);
  TableGenOptions uncached = opts;
  uncached.use_cache = false;
  const DeviceTable fresh = generate_device_table(spec, uncached);
  EXPECT_EQ(bits_hash(regenerated.current_A), bits_hash(fresh.current_A));
  EXPECT_EQ(bits_hash(regenerated.charge_C), bits_hash(fresh.charge_C));
  EXPECT_EQ(bits_hash({regenerated.band_gap_eV}), bits_hash({fresh.band_gap_eV}));

  const DeviceTable on_disk = load_table(path);
  EXPECT_EQ(bits_hash(on_disk.current_A), bits_hash(fresh.current_A));
  EXPECT_EQ(counter(metrics::Counter::kTableCacheCorruptReplaced) - replaced_before, 1u);
  EXPECT_EQ(counter(metrics::Counter::kTableCacheHits) - hits_before, 0u);

  const DeviceTable again = generate_device_table(spec, opts);
  EXPECT_EQ(bits_hash(again.current_A), bits_hash(fresh.current_A));
  EXPECT_EQ(counter(metrics::Counter::kTableCacheHits) - hits_before, 1u);
  EXPECT_EQ(counter(metrics::Counter::kTableCacheCorruptReplaced) - replaced_before, 1u);
  std::filesystem::remove_all(dir);
}

TEST(TableGen, DefaultEnergyStepWithinHalfPercentOfFinerReference) {
  // A cold N = 12 sub-table of the standard bias plane, VG 0.2/0.6/1.0 V x
  // VD 0/0.75 V, on the default uniform energy grid against the same table
  // at a 4x finer step. Currents are compared where |I| > 1e-3 Imax;
  // charges relative to the reference's largest |Q|.
  TableGenOptions opts;
  opts.vg_min = 0.2;
  opts.vg_max = 1.0;
  opts.vg_points = 3;
  opts.vd_min = 0.0;
  opts.vd_max = 0.75;
  opts.vd_points = 2;
  opts.use_cache = false;
  const DeviceTable table = generate_device_table(DeviceSpec{}, opts);
  opts.solve.energy_step_eV /= 4.0;
  const DeviceTable ref = generate_device_table(DeviceSpec{}, opts);

  double i_max = 0.0, q_max = 0.0;
  for (size_t k = 0; k < ref.current_A.size(); ++k) {
    i_max = std::max(i_max, std::abs(ref.current_A[k]));
    q_max = std::max(q_max, std::abs(ref.charge_C[k]));
  }
  for (size_t k = 0; k < ref.current_A.size(); ++k) {
    EXPECT_LE(std::abs(table.charge_C[k] - ref.charge_C[k]), 5e-3 * q_max) << "point " << k;
    if (std::abs(ref.current_A[k]) <= 1e-3 * i_max) continue;
    EXPECT_LE(std::abs(table.current_A[k] - ref.current_A[k]), 5e-3 * std::abs(ref.current_A[k]))
        << "point " << k;
  }
}

/// The pinned end-to-end table through the self-consistent device stack
/// (Gummel loop, capacitance-matrix Poisson, tablegen): the N = 12 device
/// on an 8 nm channel, VG {0, 0.2, 0.4} x VD {0.05, 0.35} V, uniform
/// energy grid, no cache.
DeviceTable golden_device_table() {
  DeviceSpec spec;
  spec.channel_length_nm = 8.0;
  TableGenOptions opts;
  opts.vg_min = 0.0;
  opts.vg_max = 0.4;
  opts.vg_points = 3;
  opts.vd_min = 0.05;
  opts.vd_max = 0.35;
  opts.vd_points = 2;
  opts.use_cache = false;
  return generate_device_table(spec, opts);
}

TEST(DeviceGolden, TableWithin1e8OfFullGridPoissonPins) {
  // The same table as solved by the full-grid Newton Poisson path, which
  // was bit-identical to the pre-adaptive solver: these constants are its
  // hexfloats, and their FNV hashes are that path's old bit pins. The
  // capacitance-matrix solve is exact up to the 1e-10 PCG tolerance G is
  // built with, so every entry must agree to 1e-8 relative.
  const std::vector<double> full_grid_current = {
      0x1.596231e6a8431p-23, 0x1.da8255360c9c1p-22, 0x1.783f355e9c6d4p-23,
      0x1.400a1da03ac3p-22,  0x1.11f0ef24187c8p-22, 0x1.25844c0ef1327p-21};
  const std::vector<double> full_grid_charge = {
      0x1.fa643b346dab6p-67,  0x1.5ea08e3d07993p-64,  -0x1.601d6f58b2a6cp-64,
      -0x1.9ebc8e01a596fp-67, -0x1.70924171f6ccap-63, -0x1.d11b9a0505d01p-64};
  ASSERT_EQ(fnv1a(full_grid_current), 0x5e466317ca8aae43ull);
  ASSERT_EQ(fnv1a(full_grid_charge), 0xadcc7b5ce2e3c7bbull);
  const DeviceTable t = golden_device_table();
  ASSERT_EQ(t.current_A.size(), full_grid_current.size());
  for (size_t i = 0; i < t.current_A.size(); ++i) {
    EXPECT_NEAR(t.current_A[i], full_grid_current[i], 1e-8 * std::abs(full_grid_current[i]))
        << "entry " << i;
    EXPECT_NEAR(t.charge_C[i], full_grid_charge[i], 1e-8 * std::abs(full_grid_charge[i]))
        << "entry " << i;
  }
}

TEST(DeviceGolden, TableBitPinned) {
  // Bit-exact pin of the capacitance-matrix path, its Newton steps solved
  // inexactly (CG stopped at the forcing term on the Newton residual).
  const DeviceTable t = golden_device_table();
  EXPECT_EQ(fnv1a(t.current_A), 0x457121923eb6d565ull);
  EXPECT_EQ(fnv1a(t.charge_C), 0x3b815aa377053ceaull);
  ASSERT_EQ(t.current_A.size(), 6u);
  EXPECT_EQ(t.current_A[0], 0x1.596231e40d37cp-23);
  EXPECT_EQ(t.current_A[5], 0x1.25844c1a2c0b5p-21);
}

}  // namespace
