/// NEGF energy-integration benchmark: the same mode-space I-V sweep (a
/// fig2-style source-drain ramp family) solved on the uniform grid and on
/// the adaptive grid, both checked against a 4x-finer uniform reference.
/// Emits bench_out/BENCH_negf.json with one {grid, rgf_solves,
/// energy_points, seconds, max_rel_current_err} record per line — the
/// perf-trajectory file behind tools/ci_checks.sh perf-smoke, which
/// asserts the adaptive grid does at most half the uniform RGF solves at
/// <= 1e-4 relative current error.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "gnr/modespace.hpp"
#include "negf/transport.hpp"

using namespace gnrfet;

namespace {

std::vector<std::vector<double>> ramp_potential(size_t ncol, size_t nlines, double vd) {
  // Source-drain ramp with a line-direction ripple: the potential family
  // the self-consistent fig2 sweep produces, minus the Poisson loop.
  std::vector<std::vector<double>> u(ncol, std::vector<double>(nlines, 0.0));
  for (size_t c = 0; c < ncol; ++c) {
    const double x = static_cast<double>(c) / static_cast<double>(ncol - 1);
    for (size_t j = 0; j < nlines; ++j) {
      u[c][j] = -0.3 - vd * x + 0.02 * std::cos(0.7 * static_cast<double>(j));
    }
  }
  return u;
}

/// FNV-1a over raw double bytes: the bit-identity witness the CI thread
/// sweep compares across GNRFET_THREADS values.
uint64_t fnv1a(const std::vector<double>& v) {
  uint64_t h = 1469598103934665603ull;
  for (const double d : v) {
    unsigned char b[sizeof(double)];
    std::memcpy(b, &d, sizeof(double));
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

int main() {
  const int n_gnr = common::env::get_positive_int("GNRFET_BENCH_NEGF_N", 12);
  const size_t ncol =
      static_cast<size_t>(common::env::get_positive_int("GNRFET_BENCH_NEGF_NCOL", 64));
  const int nvd = common::env::get_positive_int("GNRFET_BENCH_NEGF_NVD", 6);
  const auto modes = gnr::build_mode_set(n_gnr, {2.7, 0.12}, 3);
  const size_t nlines = static_cast<size_t>(modes.n_index);

  bench::banner("NEGF energy integration (uniform vs adaptive grid)");
  std::printf("N=%d ribbon, %zu columns, %d bias points\n", n_gnr, ncol, nvd);

  std::vector<negf::TransportOptions> biases;
  std::vector<std::vector<std::vector<double>>> potentials;
  for (int i = 0; i < nvd; ++i) {
    const double vd = 0.05 + 0.45 * static_cast<double>(i) / static_cast<double>(nvd - 1);
    negf::TransportOptions opt;
    opt.mu_drain_eV = -vd;
    opt.energy_step_eV = 2e-3;
    biases.push_back(opt);
    potentials.push_back(ramp_potential(ncol, nlines, vd));
  }

  // 4x-finer uniform reference currents.
  setenv("GNRFET_NEGF_GRID", "uniform", 1);
  std::vector<double> ref(biases.size());
  for (size_t i = 0; i < biases.size(); ++i) {
    negf::TransportOptions fine = biases[i];
    fine.energy_step_eV /= 4.0;
    ref[i] = negf::solve_mode_space(modes, potentials[i], fine).current_A;
  }

  bench::output_path("negf_grid");  // ensures bench_out/ exists
  std::ofstream json("bench_out/BENCH_negf.json");
  csv::Table table({"grid_id", "rgf_solves", "energy_points", "seconds", "max_rel_current_err"});
  table.set_meta("grid_id", "0 = uniform, 1 = adaptive");

  for (const char* grid : {"uniform", "adaptive"}) {
    setenv("GNRFET_NEGF_GRID", grid, 1);
    const auto before = metrics::snapshot();
    bench::PhaseTimer timer("negf_grid", grid);
    double max_rel = 0.0;
    std::vector<double> currents;
    currents.reserve(biases.size());
    for (size_t i = 0; i < biases.size(); ++i) {
      const auto sol = negf::solve_mode_space(modes, potentials[i], biases[i]);
      currents.push_back(sol.current_A);
      max_rel = std::max(max_rel, std::abs(sol.current_A - ref[i]) / std::abs(ref[i]));
    }
    const double seconds = timer.stop();
    const auto after = metrics::snapshot();
    const auto solves = after.counters[static_cast<size_t>(metrics::Counter::kRgfSolves)] -
                        before.counters[static_cast<size_t>(metrics::Counter::kRgfSolves)];
    const auto points =
        after.counters[static_cast<size_t>(metrics::Counter::kNegfEnergyPoints)] -
        before.counters[static_cast<size_t>(metrics::Counter::kNegfEnergyPoints)];
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(fnv1a(currents)));
    std::printf(
        "%-8s: %8llu RGF solves, %8llu energy points, %.3f s, max |dI/I| = %.2e, I hash %s\n",
        grid, static_cast<unsigned long long>(solves),
        static_cast<unsigned long long>(points), seconds, max_rel, hash);
    json << "{\"grid\":\"" << grid << "\",\"rgf_solves\":" << solves
         << ",\"energy_points\":" << points << ",\"seconds\":" << seconds
         << ",\"max_rel_current_err\":" << max_rel << ",\"current_hash\":\"" << hash
         << "\"}\n";
    table.add_row({grid[0] == 'u' ? 0.0 : 1.0, double(solves), double(points), seconds,
                   max_rel});
  }
  json.close();
  std::printf("[json] bench_out/BENCH_negf.json\n");
  bench::save_csv(table, "negf_grid");
  return 0;
}
