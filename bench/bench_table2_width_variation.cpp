/// Table 2 reproduction: effect of independent GNR-width variations
/// (N in {9,12,15,18}) in the n/p GNRFET arrays on FO4-inverter delay,
/// static/dynamic power, and SNM, in the 1-of-4 and 4-of-4 scenarios, at
/// the operating point B (VDD=0.4 V, VT=0.13 V).
#include <cstdio>

#include "bench_common.hpp"
#include "explore/variants.hpp"

using namespace gnrfet;

int main() {
  bench::banner("Table 2: width variation study (percent change vs nominal)");
  explore::DesignKit kit;
  std::vector<explore::VariantSpec> widths = {{9, 0.0}, {12, 0.0}, {15, 0.0}, {18, 0.0}};
  const auto [base, entries] = explore::run_variation_study(kit, widths, widths);
  std::printf("nominal: delay %.2f ps, Pstat %.4g uW, Pdyn %.4g uW, SNM %.3f V\n",
              base.delay_s * 1e12, base.static_power_W * 1e6, base.dynamic_power_W * 1e6,
              base.snm_V);
  std::printf("(paper nominal: 7.54 ps, 0.095 uW, 0.706 uW, 0.15 V)\n\n");

  csv::Table out({"n_N", "p_N", "affected", "delay_pct", "pstat_pct", "pdyn_pct", "snm_pct"});
  std::printf("%-5s %-5s | %-14s | %-14s | %-14s | %-14s\n", "pN", "nN", "delay % (1,4)",
              "Pstat % (1,4)", "Pdyn % (1,4)", "SNM % (1,4)");
  for (const auto& e : entries) {
    std::printf("%-5d %-5d | %6.0f,%6.0f | %6.0f,%6.0f | %6.0f,%6.0f | %6.0f,%6.0f\n",
                e.p_variant.n_index, e.n_variant.n_index, e.delay_pct[0], e.delay_pct[1],
                e.static_power_pct[0], e.static_power_pct[1], e.dynamic_power_pct[0],
                e.dynamic_power_pct[1], e.snm_pct[0], e.snm_pct[1]);
    for (int s = 0; s < 2; ++s) {
      out.add_row({static_cast<double>(e.n_variant.n_index),
                   static_cast<double>(e.p_variant.n_index), s == 0 ? 1.0 : 4.0,
                   e.delay_pct[s], e.static_power_pct[s], e.dynamic_power_pct[s],
                   e.snm_pct[s]});
    }
  }
  std::printf("\n(paper worst cases: N=9/9 delay +6..77%%; N=18/18 Pstat +313..643%%,\n"
              " Pdyn +37..215%%; max n/p mismatch N=9 vs 18: SNM -27..-80%%)\n");
  bench::save_csv(out, "table2_width_variation");
  return 0;
}
