/// Table 4 reproduction: simultaneous width (N = 9/18) and charge-impurity
/// (-q/+q) variations in the n/p GNRFET arrays; width variation dominates
/// and impurities exacerbate it (worst case: delay >2x, Pstat >7x,
/// Pdyn >2x, SNM -> 0 when all GNRs are affected).
#include <cstdio>

#include "bench_common.hpp"
#include "explore/variants.hpp"

using namespace gnrfet;

int main() {
  bench::banner("Table 4: simultaneous width + impurity study (percent change)");
  explore::DesignKit kit;
  std::vector<explore::VariantSpec> combos = {{9, -1.0}, {9, 1.0}, {18, -1.0}, {18, 1.0}};
  const auto entries = explore::run_variation_study(kit, combos, combos).entries;

  csv::Table out({"n_N", "n_q", "p_N", "p_q", "affected", "delay_pct", "pstat_pct",
                  "pdyn_pct", "snm_pct"});
  std::printf("%-9s %-9s | %-14s | %-14s | %-14s | %-14s\n", "p(N,q)", "n(N,q)",
              "delay % (1,4)", "Pstat % (1,4)", "Pdyn % (1,4)", "SNM % (1,4)");
  for (const auto& e : entries) {
    std::printf("%2d,%+2.0f    %2d,%+2.0f    | %6.0f,%6.0f | %6.0f,%6.0f | %6.0f,%6.0f | "
                "%6.0f,%6.0f\n",
                e.p_variant.n_index, e.p_variant.impurity_q, e.n_variant.n_index,
                e.n_variant.impurity_q, e.delay_pct[0], e.delay_pct[1],
                e.static_power_pct[0], e.static_power_pct[1], e.dynamic_power_pct[0],
                e.dynamic_power_pct[1], e.snm_pct[0], e.snm_pct[1]);
    for (int s = 0; s < 2; ++s) {
      out.add_row({static_cast<double>(e.n_variant.n_index), e.n_variant.impurity_q,
                   static_cast<double>(e.p_variant.n_index), e.p_variant.impurity_q,
                   s == 0 ? 1.0 : 4.0, e.delay_pct[s], e.static_power_pct[s],
                   e.dynamic_power_pct[s], e.snm_pct[s]});
    }
  }
  std::printf("\n(paper worst cases: delay +6..142%% (9,+q/9,-q-ish corner), Pstat up to\n"
              " +371..684%%, Pdyn up to +149..142%%, SNM down to -100%% at the 9/18 corners)\n");
  bench::save_csv(out, "table4_simultaneous");
  return 0;
}
