/// Pre-generates every intrinsic-device lookup table the benches need into
/// the on-disk cache (data/cache). Idempotent: cached tables are skipped.
///
/// The set covers the paper's variability study: ideal devices with
/// N = 9/12/15/18 (Table 2, Fig. 4), N = 12 with oxide charge impurities
/// -2q..+2q (Table 3, Fig. 5), N = 9/18 with -q/+q (Table 4, Fig. 7), and
/// then every Monte Carlo variant of Fig. 6 not yet listed
/// (explore::monte_carlo_variants: N = 9/12/15 x -q/0/+q, which adds
/// N = 15 with -q/+q). Each variant resolves through explore::DesignKit::table, so its spec,
/// bias grid and cache key are the ones every bench uses.
///
/// Generation runs in-process on GNRFET_THREADS threads; takes no arguments.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "explore/montecarlo.hpp"
#include "explore/tech_explore.hpp"

using namespace gnrfet;

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (no arguments)\n", argv[0]);
    return 2;
  }

  std::vector<explore::VariantSpec> variants = {
      {12, 0.0}, {9, 0.0},  {15, 0.0}, {18, 0.0},  {12, -1.0}, {12, 1.0}, {12, -2.0},
      {12, 2.0}, {9, -1.0}, {9, 1.0},  {18, -1.0}, {18, 1.0},
  };
  for (const auto& v : explore::monte_carlo_variants()) {
    if (std::find(variants.begin(), variants.end(), v) == variants.end()) variants.push_back(v);
  }
  explore::DesignKit kit;
  for (const auto& v : variants) {
    const auto t0 = std::chrono::steady_clock::now();
    const device::DeviceTable& table = kit.table(v);
    const double dt = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::printf("table N=%d q=%+.0f: %zux%zu points, Eg=%.3f eV (%.1f s)\n", v.n_index,
                v.impurity_q, table.vg.size(), table.vd.size(), table.band_gap_eV, dt);
    std::fflush(stdout);
  }
  std::printf("all tables ready\n");
  return 0;
}
