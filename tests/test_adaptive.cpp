#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cache.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "device/tablegen.hpp"
#include "gnr/modespace.hpp"
#include "negf/adaptive.hpp"
#include "negf/scalar_rgf.hpp"
#include "negf/transport.hpp"
#include "env_guard.hpp"
#include "golden.hpp"

namespace {

using namespace gnrfet;
using tests::EnvGuard;
using tests::flatten;
using tests::fnv1a;
using tests::GoldenProblem;

uint64_t rgf_solves() {
  return metrics::snapshot().counters[static_cast<size_t>(metrics::Counter::kRgfSolves)];
}

TEST(AdaptiveAccuracy, MatchesFineUniformReferenceWithFewerSolves) {
  GoldenProblem p;
  // Reference: 4x finer uniform grid.
  negf::TransportOptions fine = p.opts;
  fine.energy_step_eV = p.opts.energy_step_eV / 4.0;
  uint64_t solves_uniform = 0;
  negf::TransportSolution ref;
  {
    EnvGuard guard("GNRFET_NEGF_GRID", "uniform");
    metrics::reset();
    const auto coarse = negf::solve_mode_space(p.modes, p.u, p.opts);
    solves_uniform = rgf_solves();
    (void)coarse;
    ref = negf::solve_mode_space(p.modes, p.u, fine);
  }
  EnvGuard guard("GNRFET_NEGF_GRID", "adaptive");
  metrics::reset();
  const auto sol = negf::solve_mode_space(p.modes, p.u, p.opts);
  const uint64_t solves_adaptive = rgf_solves();
  const metrics::Snapshot work = metrics::snapshot();
  const uint64_t evaluated =
      work.counters[static_cast<size_t>(metrics::Counter::kNegfEnergyPoints)];
  const uint64_t uniform_equiv =
      work.counters[static_cast<size_t>(metrics::Counter::kNegfEnergyPointsUniformEquiv)];

  // Accuracy contract: <= 1e-4 relative on current against the 4x-finer
  // uniform reference (measured ~4e-10 on this problem).
  EXPECT_LE(std::abs(sol.current_A - ref.current_A), 1e-4 * std::abs(ref.current_A));
  EXPECT_LE(std::abs(sol.total_net_electrons - ref.total_net_electrons),
            5e-4 * std::abs(ref.total_net_electrons));
  // Perf contract: at most half the uniform solve count (measured ~2.7x
  // fewer), and the paired work counters show the same reduction.
  EXPECT_LE(2 * solves_adaptive, solves_uniform);
  EXPECT_GT(evaluated, 0u);
  EXPECT_LE(2 * evaluated, uniform_equiv);
}

TEST(AdaptiveDeterminism, BitIdenticalAcrossThreadCounts) {
  EnvGuard guard("GNRFET_NEGF_GRID", "adaptive");
  GoldenProblem p;
  const int before = par::thread_count();
  par::set_thread_count(1);
  const auto s1 = negf::solve_mode_space(p.modes, p.u, p.opts);
  par::set_thread_count(4);
  const auto s4 = negf::solve_mode_space(p.modes, p.u, p.opts);
  par::set_thread_count(before);
  EXPECT_EQ(s1.current_A, s4.current_A);
  EXPECT_EQ(s1.current_drain_A, s4.current_drain_A);
  EXPECT_EQ(s1.total_net_electrons, s4.total_net_electrons);
  EXPECT_EQ(fnv1a(s1.energies_eV), fnv1a(s4.energies_eV));
  EXPECT_EQ(fnv1a(s1.transmission), fnv1a(s4.transmission));
  EXPECT_EQ(fnv1a(flatten(s1.electrons)), fnv1a(flatten(s4.electrons)));
  EXPECT_EQ(fnv1a(flatten(s1.holes)), fnv1a(flatten(s4.holes)));
}

TEST(AdaptiveContext, WarmStartReusesConvergedEdges) {
  EnvGuard guard("GNRFET_NEGF_GRID", "adaptive");
  GoldenProblem p;
  negf::TransportContext ctx;
  const auto cold = negf::solve_mode_space(p.modes, p.u, p.opts, ctx);
  ASSERT_EQ(ctx.mode_edges.size(), p.modes.modes.size());
  size_t with_edges = 0;
  for (const auto& e : ctx.mode_edges) with_edges += !e.empty() ? 1 : 0;
  EXPECT_GT(with_edges, 0u);
  // Warm solve of the same potential starts from the converged panels and
  // lands on the same integrals (within tolerance; identical here because
  // the converged structure re-accepts immediately).
  const auto warm = negf::solve_mode_space(p.modes, p.u, p.opts, ctx);
  EXPECT_NEAR(warm.current_A, cold.current_A, 1e-6 * std::abs(cold.current_A));
  EXPECT_NEAR(warm.total_net_electrons, cold.total_net_electrons,
              1e-6 * std::abs(cold.total_net_electrons));
  ctx.reset();
  EXPECT_TRUE(ctx.mode_edges.empty());
}

TEST(AdaptiveWindow, ModeOutsideWindowContributesNothingAndSolvesNothing) {
  // Window override far above every mode's support: the skip branch must
  // produce a zero solution without a single RGF solve.
  EnvGuard guard("GNRFET_NEGF_GRID", "adaptive");
  GoldenProblem p;
  negf::TransportOptions opts = p.opts;
  opts.window_lo_eV = 30.0;
  opts.window_hi_eV = 31.0;
  metrics::reset();
  const auto sol = negf::solve_mode_space(p.modes, p.u, opts);
  EXPECT_EQ(rgf_solves(), 0u);
  EXPECT_EQ(sol.current_A, 0.0);
  EXPECT_EQ(sol.total_net_electrons, 0.0);
  for (const auto& col : sol.electrons) {
    for (const double v : col) EXPECT_EQ(v, 0.0);
  }
}

TEST(AdaptiveIntegrate, RecoversPolynomialExactlyAndRefinesKink) {
  // Simpson's fine rule is exact for cubics; the kink component forces
  // refinement near x = 0.37 while the cubic shares the grid for free.
  const negf::BatchEval eval = [](const std::vector<double>& xs,
                                  std::vector<std::vector<double>>& values) {
    for (size_t k = 0; k < xs.size(); ++k) {
      const double x = xs[k];
      values[k] = {x * x * x - 0.5 * x, std::abs(x - 0.37)};
    }
  };
  std::vector<negf::ErrorGroup> groups(1);
  groups[0] = {0, 2, 1e-14};
  negf::AdaptiveOptions opts;
  opts.rel_tol = 1e-8;
  const auto res = negf::adaptive_integrate(0.0, 1.0, 2, {}, groups, opts, eval);
  EXPECT_NEAR(res.integrals[0], 0.25 - 0.25, 1e-12);
  const double kink_exact = (0.37 * 0.37 + 0.63 * 0.63) / 2.0;
  EXPECT_NEAR(res.integrals[1], kink_exact, 1e-8);
  EXPECT_GT(res.max_depth_reached, 0);
  // Edges ascend and span the window.
  ASSERT_GE(res.edges.size(), 2u);
  EXPECT_EQ(res.edges.front(), 0.0);
  EXPECT_EQ(res.edges.back(), 1.0);
  for (size_t i = 1; i < res.edges.size(); ++i) EXPECT_LT(res.edges[i - 1], res.edges[i]);
}

TEST(AdaptiveIntegrate, PanelSinkSeesEveryPanelInAscendingOrder) {
  const negf::BatchEval eval = [](const std::vector<double>& xs,
                                  std::vector<std::vector<double>>& values) {
    for (size_t k = 0; k < xs.size(); ++k) values[k] = {std::exp(xs[k])};
  };
  std::vector<negf::ErrorGroup> groups(1);
  groups[0] = {0, 1, 1e-14};
  double sum = 0.0, last_b = -1.0;
  bool ordered = true;
  const negf::PanelSink sink = [&](double a, double b, const std::vector<double>& contrib) {
    ordered = ordered && a >= last_b - 1e-15;
    last_b = b;
    sum += contrib[0];
  };
  negf::AdaptiveOptions aopts;
  aopts.rel_tol = 1e-9;
  const auto res = negf::adaptive_integrate(0.0, 1.0, 1, {0.3}, groups, aopts, eval, sink);
  EXPECT_TRUE(ordered);
  // The sink contributions add up to exactly the reported integral (same
  // summation order), which matches exp(1) - 1.
  EXPECT_EQ(sum, res.integrals[0]);
  EXPECT_NEAR(res.integrals[0], std::exp(1.0) - 1.0, 1e-8);
}

/// Scoped thread-count override restoring the previous value on exit.
struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) : old_(par::thread_count()) { par::set_thread_count(n); }
  ~ThreadCountGuard() { par::set_thread_count(old_); }
  int old_;
};

device::DeviceSpec warmbias_spec() {
  device::DeviceSpec spec;
  spec.channel_length_nm = 6.0;
  spec.grid_step_nm = 0.35;
  spec.lateral_margin_nm = 2.0;
  spec.num_modes = 2;
  return spec;
}

device::TableGenOptions warmbias_opts(bool warm) {
  device::TableGenOptions opts;
  opts.vg_points = 3;
  opts.vg_max = 0.4;
  opts.vd_min = 0.05;
  opts.vd_max = 0.35;
  opts.vd_points = 2;
  opts.solve.energy_step_eV = 5e-3;
  opts.solve.gummel_tolerance_V = 3e-3;
  opts.use_cache = false;
  opts.warm_bias_context = warm;
  return opts;
}

TEST(TablegenWarmBias, UniformTableBitIdenticalToColdStart) {
  // The uniform energy grid ignores the TransportContext entirely, so
  // cross-bias chaining must leave the pinned uniform tables bit-identical
  // to a cold start, and must not fork their cache key.
  EnvGuard guard("GNRFET_NEGF_GRID", "uniform");
  const auto spec = warmbias_spec();
  const auto warm = device::generate_device_table(spec, warmbias_opts(true));
  const auto cold = device::generate_device_table(spec, warmbias_opts(false));
  ASSERT_EQ(warm.current_A.size(), cold.current_A.size());
  for (size_t i = 0; i < warm.current_A.size(); ++i) {
    EXPECT_EQ(warm.current_A[i], cold.current_A[i]) << "row " << i;
    EXPECT_EQ(warm.charge_C[i], cold.charge_C[i]) << "row " << i;
  }
  EXPECT_EQ(device::table_cache_payload(spec, warmbias_opts(true)),
            device::table_cache_payload(spec, warmbias_opts(false)));
}

TEST(TablegenWarmBias, AdaptiveCachePayloadKeyedByContextChaining) {
  // Chained panel seeding moves adaptive table values within tolerance, so
  // warm and cold tables must live under different cache keys.
  EnvGuard guard("GNRFET_NEGF_GRID", "adaptive");
  const auto spec = warmbias_spec();
  const std::string warm_key = device::table_cache_payload(spec, warmbias_opts(true));
  const std::string cold_key = device::table_cache_payload(spec, warmbias_opts(false));
  EXPECT_NE(warm_key, cold_key);
  EXPECT_NE(warm_key.find(";ctx=bias"), std::string::npos);
  EXPECT_EQ(cold_key.find(";ctx=bias"), std::string::npos);
}

TEST(TablegenWarmBias, AdaptiveWarmTableAgreesWithColdStart) {
  // Seeding each bias point's panels from its warm-start neighbour changes
  // the refinement structure, so warm and cold tables are not bit-equal;
  // they must agree within the adaptive tolerance as amplified by the
  // Gummel stopping window.
  EnvGuard guard("GNRFET_NEGF_GRID", "adaptive");
  const auto spec = warmbias_spec();
  const auto warm = device::generate_device_table(spec, warmbias_opts(true));
  const auto cold = device::generate_device_table(spec, warmbias_opts(false));
  ASSERT_EQ(warm.current_A.size(), cold.current_A.size());
  for (size_t i = 0; i < warm.current_A.size(); ++i) {
    EXPECT_NEAR(warm.current_A[i], cold.current_A[i], 0.05 * std::abs(cold.current_A[i]) + 1e-15)
        << "row " << i;
    EXPECT_NEAR(warm.charge_C[i], cold.charge_C[i], 0.05 * std::abs(cold.charge_C[i]) + 1e-24)
        << "row " << i;
  }
}

TEST(TablegenWarmBiasParallel, AdaptiveWarmTableBitIdentical1v4Threads) {
  // The context chain follows the warm-start graph (serial head row, then
  // per-column copies), so chained tables must stay bit-identical for any
  // thread count. Also the TSan target for the chaining code.
  EnvGuard guard("GNRFET_NEGF_GRID", "adaptive");
  const auto spec = warmbias_spec();
  ThreadCountGuard g1(1);
  const auto serial = device::generate_device_table(spec, warmbias_opts(true));
  ThreadCountGuard g4(4);
  const auto threaded = device::generate_device_table(spec, warmbias_opts(true));
  ASSERT_EQ(serial.current_A.size(), threaded.current_A.size());
  for (size_t i = 0; i < serial.current_A.size(); ++i) {
    ASSERT_EQ(serial.current_A[i], threaded.current_A[i]) << "row " << i;
    ASSERT_EQ(serial.charge_C[i], threaded.charge_C[i]) << "row " << i;
  }
}

TEST(ScalarRgfWorkspace, ReuseAcrossSolvesMatchesFreshWorkspace) {
  // A warm workspace carried across chains and energies must be stateless:
  // every solve equals a fresh-workspace solve bit-for-bit.
  negf::ScalarChain chain;
  const size_t n = 24;
  chain.onsite.resize(n);
  chain.hopping.assign(n - 1, -2.7);
  chain.gamma_left = 1.0;
  chain.gamma_right = 1.0;
  negf::ScalarRgfWorkspace warm;
  negf::ScalarRgfResult r_warm, r_fresh;
  for (int trial = 0; trial < 3; ++trial) {
    for (size_t c = 0; c < n; ++c) {
      chain.onsite[c] = -0.2 * trial + 0.05 * std::sin(0.3 * static_cast<double>(c));
    }
    for (const double e : {-0.4, 0.1, 0.35}) {
      negf::scalar_rgf_solve(chain, e, 1e-3, warm, r_warm);
      negf::ScalarRgfWorkspace fresh;
      negf::scalar_rgf_solve(chain, e, 1e-3, fresh, r_fresh);
      EXPECT_EQ(r_warm.transmission, r_fresh.transmission);
      EXPECT_EQ(r_warm.transmission_reverse, r_fresh.transmission_reverse);
      ASSERT_EQ(r_warm.spectral_left.size(), r_fresh.spectral_left.size());
      for (size_t c = 0; c < r_warm.spectral_left.size(); ++c) {
        EXPECT_EQ(r_warm.spectral_left[c], r_fresh.spectral_left[c]);
        EXPECT_EQ(r_warm.spectral_right[c], r_fresh.spectral_right[c]);
      }
    }
  }
}

TEST(NegfGridDefault, UnsetResolvesToUniform) {
  EnvGuard guard("GNRFET_NEGF_GRID", nullptr);
  EXPECT_EQ(negf::negf_grid_from_env(), negf::NegfGridKind::kUniform);
}

TEST(NegfGridDefault, BadValueStillThrows) {
  EnvGuard guard("GNRFET_NEGF_GRID", "simpson");
  EXPECT_THROW(negf::negf_grid_from_env(), std::invalid_argument);
}

TEST(NegfGridDefault, UnsetPayloadEqualsExplicitUniformWithoutGridSuffix) {
  // Default tables key to the pre-adaptive payload, so caches written by
  // GNRFET_NEGF_GRID=uniform stay warm under the default.
  const auto spec = warmbias_spec();
  const auto opts = warmbias_opts(true);
  std::string unset_key, uniform_key;
  {
    EnvGuard guard("GNRFET_NEGF_GRID", nullptr);
    unset_key = device::table_cache_payload(spec, opts);
  }
  {
    EnvGuard guard("GNRFET_NEGF_GRID", "uniform");
    uniform_key = device::table_cache_payload(spec, opts);
  }
  EXPECT_EQ(unset_key, uniform_key);
  EXPECT_EQ(unset_key.find(";grid="), std::string::npos) << unset_key;
  EXPECT_EQ(unset_key.find(";ctx="), std::string::npos) << unset_key;
}

TEST(NegfGridDefault, UnsetColdTableWritesTheExplicitUniformCacheFile) {
  // End to end through generation and the disk cache: the default run and
  // the explicit-uniform run must leave byte-identical cache CSVs.
  const auto spec = warmbias_spec();
  device::TableGenOptions opts = warmbias_opts(true);
  opts.use_cache = true;
  const auto cache_file = [&](const char* grid, const std::string& dir_name) {
    const auto dir = std::filesystem::temp_directory_path() / dir_name;
    std::filesystem::remove_all(dir);
    EnvGuard cache_dir("GNRFET_CACHE_DIR", dir.c_str());
    EnvGuard guard("GNRFET_NEGF_GRID", grid);
    device::generate_device_table(spec, opts);
    const std::string path =
        cache::path_for("device-table", device::table_cache_payload(spec, opts));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::filesystem::remove_all(dir);
    return bytes.str();
  };
  const std::string unset_csv = cache_file(nullptr, "gnrfet_grid_default_unset");
  const std::string uniform_csv = cache_file("uniform", "gnrfet_grid_default_uniform");
  ASSERT_FALSE(unset_csv.empty());
  EXPECT_EQ(unset_csv, uniform_csv);
}

}  // namespace
