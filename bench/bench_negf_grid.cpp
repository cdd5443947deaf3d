/// NEGF energy-grid benchmark, in two sections.
///
/// Synthetic: a mode-space I-V sweep (a fig2-style source-drain ramp
/// family) on the uniform grid, checked against a 4x-finer uniform
/// reference. One {grid, rgf_solves, energy_points, seconds,
/// max_rel_current_err, current_hash} record; tools/ci_checks.sh
/// perf-smoke asserts its current hash is the same at GNRFET_THREADS=1
/// and 4.
///
/// Real device: a cold N=12 sub-table of the standard bias plane (VG
/// 0.2-1.0 V x VD 0-0.75 V, 9 x 4 points by default) generated through
/// the full self-consistent stack on the uniform 2.5 meV grid and on a
/// uniform grid at a 4x finer step (the reference). One {device_grid,
/// step_meV, rgf_solves, gummel_iterations, seconds, max_rel_current_err,
/// mean_rel_current_err, max_charge_err_of_qmax} record per grid; current errors count the
/// points with |I| > 1e-3 * Imax, charge errors are relative to the
/// reference table's largest |Q|. perf-smoke asserts the uniform default
/// stays within 0.5% of the reference on both.
///
/// Both sections write bench_out/BENCH_negf.json, one record per line.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "device/tablegen.hpp"
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

uint64_t counter_delta(const metrics::Snapshot& before, const metrics::Snapshot& after,
                       metrics::Counter c) {
  return after.counters[static_cast<size_t>(c)] - before.counters[static_cast<size_t>(c)];
}

/// One real-device grid run: its record label and energy step.
struct DeviceGrid {
  const char* name;
  double step_eV;
};

/// Errors of a table against the reference table.
struct TableErrors {
  double max_rel_current = 0.0;   ///< over |I_ref| > 1e-3 * Imax
  double mean_rel_current = 0.0;  ///< same points
  double max_charge_of_qmax = 0.0;
};

TableErrors score(const device::DeviceTable& t, const device::DeviceTable& ref) {
  double i_max = 0.0, q_max = 0.0;
  for (size_t k = 0; k < ref.current_A.size(); ++k) {
    i_max = std::max(i_max, std::abs(ref.current_A[k]));
    q_max = std::max(q_max, std::abs(ref.charge_C[k]));
  }
  TableErrors e;
  size_t counted = 0;
  for (size_t k = 0; k < ref.current_A.size(); ++k) {
    e.max_charge_of_qmax =
        std::max(e.max_charge_of_qmax, std::abs(t.charge_C[k] - ref.charge_C[k]) / q_max);
    if (std::abs(ref.current_A[k]) <= 1e-3 * i_max) continue;
    const double rel = std::abs(t.current_A[k] - ref.current_A[k]) / std::abs(ref.current_A[k]);
    e.max_rel_current = std::max(e.max_rel_current, rel);
    e.mean_rel_current += rel;
    ++counted;
  }
  if (counted > 0) e.mean_rel_current /= static_cast<double>(counted);
  return e;
}

/// Real-device section: cold sub-tables of the N=12 device on the default
/// grid and the 4x-finer uniform one, scored against the latter.
void device_section(std::ofstream& json) {
  const int nvg = common::env::get_positive_int("GNRFET_BENCH_NEGF_DEVICE_NVG", 9);
  const int nvd = common::env::get_positive_int("GNRFET_BENCH_NEGF_DEVICE_NVD", 4);
  bench::banner("NEGF energy integration on the real device (cold N=12 sub-table)");
  device::TableGenOptions opts;
  opts.vg_min = 0.2;
  opts.vg_max = 1.0;
  opts.vg_points = static_cast<size_t>(nvg);
  opts.vd_min = 0.0;
  opts.vd_max = 0.75;
  opts.vd_points = static_cast<size_t>(nvd);
  opts.use_cache = false;
  const double step = opts.solve.energy_step_eV;
  std::printf("VG %.2f-%.2f V x VD %.2f-%.2f V, %d x %d points, default step %.3g meV\n",
              opts.vg_min, opts.vg_max, opts.vd_min, opts.vd_max, nvg, nvd, step * 1e3);

  const DeviceGrid grids[] = {{"uniform", step}, {"reference", step / 4.0}};
  std::vector<device::DeviceTable> tables;
  std::vector<uint64_t> solves, gummel;
  std::vector<double> seconds;
  for (const DeviceGrid& g : grids) {
    device::TableGenOptions run = opts;
    run.solve.energy_step_eV = g.step_eV;
    const auto before = metrics::snapshot();
    bench::PhaseTimer timer("negf_grid", std::string("device_") + g.name);
    tables.push_back(device::generate_device_table(device::DeviceSpec{}, run));
    seconds.push_back(timer.stop());
    const auto after = metrics::snapshot();
    solves.push_back(counter_delta(before, after, metrics::Counter::kRgfSolves));
    gummel.push_back(counter_delta(before, after, metrics::Counter::kGummelIterations));
  }

  csv::Table table({"grid_id", "step_meV", "rgf_solves", "gummel_iterations", "seconds",
                    "max_rel_current_err", "mean_rel_current_err", "max_charge_err_of_qmax"});
  table.set_meta("grid_id", "0 = uniform, 1 = 4x-finer uniform reference");
  for (size_t i = 0; i < std::size(grids); ++i) {
    const TableErrors e = score(tables[i], tables.back());
    const double step_meV = grids[i].step_eV * 1e3;
    std::printf(
        "%-9s: %5.3g meV, %9llu RGF solves, %4llu Gummel, %7.2f s, max |dI/I| = %.2e, "
        "mean |dI/I| = %.2e, max |dQ|/Qmax = %.2e\n",
        grids[i].name, step_meV, static_cast<unsigned long long>(solves[i]),
        static_cast<unsigned long long>(gummel[i]), seconds[i], e.max_rel_current,
        e.mean_rel_current, e.max_charge_of_qmax);
    json << "{\"device_grid\":\"" << grids[i].name << "\",\"step_meV\":" << step_meV
         << ",\"rgf_solves\":" << solves[i] << ",\"gummel_iterations\":" << gummel[i]
         << ",\"seconds\":" << seconds[i] << ",\"max_rel_current_err\":" << e.max_rel_current
         << ",\"mean_rel_current_err\":" << e.mean_rel_current
         << ",\"max_charge_err_of_qmax\":" << e.max_charge_of_qmax << "}\n";
    table.add_row({static_cast<double>(i), step_meV, static_cast<double>(solves[i]),
                   static_cast<double>(gummel[i]), seconds[i], e.max_rel_current,
                   e.mean_rel_current, e.max_charge_of_qmax});
  }
  bench::save_csv(table, "negf_grid_device");
}

}  // namespace

int main() {
  const int n_gnr = common::env::get_positive_int("GNRFET_BENCH_NEGF_N", 12);
  const size_t ncol =
      static_cast<size_t>(common::env::get_positive_int("GNRFET_BENCH_NEGF_NCOL", 64));
  const int nvd = common::env::get_positive_int("GNRFET_BENCH_NEGF_NVD", 6);
  const auto modes = gnr::build_mode_set(n_gnr, {2.7, 0.12}, 3);
  const size_t nlines = static_cast<size_t>(modes.n_index);

  bench::banner("NEGF energy integration (uniform grid vs 4x-finer reference)");
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
  std::vector<double> ref(biases.size());
  for (size_t i = 0; i < biases.size(); ++i) {
    negf::TransportOptions fine = biases[i];
    fine.energy_step_eV /= 4.0;
    ref[i] = negf::solve_mode_space(modes, potentials[i], fine).current_A;
  }

  bench::output_path("negf_grid");  // ensures bench_out/ exists
  std::ofstream json("bench_out/BENCH_negf.json");
  const auto before = metrics::snapshot();
  bench::PhaseTimer timer("negf_grid", "uniform");
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
  const auto solves = counter_delta(before, after, metrics::Counter::kRgfSolves);
  const auto points = counter_delta(before, after, metrics::Counter::kNegfEnergyPoints);
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx", static_cast<unsigned long long>(fnv1a(currents)));
  std::printf("uniform : %8llu RGF solves, %8llu energy points, %.3f s, max |dI/I| = %.2e, "
              "I hash %s\n",
              static_cast<unsigned long long>(solves), static_cast<unsigned long long>(points),
              seconds, max_rel, hash);
  json << "{\"grid\":\"uniform\",\"rgf_solves\":" << solves << ",\"energy_points\":" << points
       << ",\"seconds\":" << seconds << ",\"max_rel_current_err\":" << max_rel
       << ",\"current_hash\":\"" << hash << "\"}\n";
  csv::Table table({"rgf_solves", "energy_points", "seconds", "max_rel_current_err"});
  table.add_row({double(solves), double(points), seconds, max_rel});
  bench::save_csv(table, "negf_grid");

  device_section(json);
  json.close();
  std::printf("[json] bench_out/BENCH_negf.json\n");
  return 0;
}
