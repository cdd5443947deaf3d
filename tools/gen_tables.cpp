/// Pre-generates every intrinsic-device lookup table the benches need into
/// the on-disk cache (data/cache). Idempotent: cached tables are skipped.
///
/// The set covers the paper's variability study: ideal devices with
/// N = 9/12/15/18 (Table 2, Fig. 4), N = 12 with oxide charge impurities
/// -2q..+2q (Table 3, Fig. 5), and N = 9/18 with -q/+q (Table 4, Figs. 6-7).
///
/// Generation runs in-process on GNRFET_THREADS threads; takes no arguments.
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "device/tablegen.hpp"

using namespace gnrfet;

namespace {

device::DeviceSpec make_spec(int n_index, double impurity_q) {
  device::DeviceSpec spec;
  spec.n_index = n_index;
  if (impurity_q != 0.0) {
    spec.impurities.push_back({impurity_q, 1.0, 0.0, 0.4});
  }
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (no arguments)\n", argv[0]);
    return 2;
  }

  std::vector<std::pair<int, double>> configs = {
      {12, 0.0}, {9, 0.0},  {15, 0.0}, {18, 0.0},  {12, -1.0}, {12, 1.0}, {12, -2.0},
      {12, 2.0}, {9, -1.0}, {9, 1.0},  {18, -1.0}, {18, 1.0},
  };
  device::TableGenOptions opts;
  opts.vg_max = 1.0;
  opts.vg_points = 21;  // 0.05 V steps over [0, 1.0]
  for (const auto& [n, q] : configs) {
    const auto spec = make_spec(n, q);
    const auto t0 = std::chrono::steady_clock::now();
    const auto table = device::generate_device_table(spec, opts);
    const double dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::printf("table N=%d q=%+.0f: %zux%zu points, Eg=%.3f eV (%.1f s)\n", n, q,
                table.vg.size(), table.vd.size(), table.band_gap_eV, dt);
    std::fflush(stdout);
  }
  std::printf("all tables ready\n");
  return 0;
}
