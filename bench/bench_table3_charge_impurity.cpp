/// Table 3 reproduction: effect of independent oxide charge impurities
/// (-2q..+2q) in the n/p GNRFET arrays on FO4-inverter delay, power, and
/// SNM (1-of-4 and 4-of-4), at operating point B. The effects are highly
/// asymmetric in the impurity polarity.
#include <cstdio>

#include "bench_common.hpp"
#include "explore/variants.hpp"

using namespace gnrfet;

int main() {
  bench::banner("Table 3: charge-impurity study (percent change vs nominal)");
  explore::DesignKit kit;
  std::vector<explore::VariantSpec> charges = {
      {12, -2.0}, {12, -1.0}, {12, 0.0}, {12, 1.0}, {12, 2.0}};
  const auto entries = explore::run_variation_study(kit, charges, charges).entries;

  csv::Table out({"n_q", "p_q", "affected", "delay_pct", "pstat_pct", "pdyn_pct", "snm_pct"});
  std::printf("%-5s %-5s | %-14s | %-14s | %-14s | %-14s\n", "p_q", "n_q", "delay % (1,4)",
              "Pstat % (1,4)", "Pdyn % (1,4)", "SNM % (1,4)");
  for (const auto& e : entries) {
    std::printf("%+4.0f %+4.0f  | %6.0f,%6.0f | %6.0f,%6.0f | %6.0f,%6.0f | %6.0f,%6.0f\n",
                e.p_variant.impurity_q, e.n_variant.impurity_q, e.delay_pct[0], e.delay_pct[1],
                e.static_power_pct[0], e.static_power_pct[1], e.dynamic_power_pct[0],
                e.dynamic_power_pct[1], e.snm_pct[0], e.snm_pct[1]);
    for (int s = 0; s < 2; ++s) {
      out.add_row({e.n_variant.impurity_q, e.p_variant.impurity_q, s == 0 ? 1.0 : 4.0,
                   e.delay_pct[s], e.static_power_pct[s], e.dynamic_power_pct[s],
                   e.snm_pct[s]});
    }
  }
  std::printf("\n(paper: worst delay +8..92%% at n=-2q/p=+2q; Pstat +11..37%% and Pdyn\n"
              " +5..19%% at n=+q/p=-q; SNM -14..-40%%; improvements are small — the\n"
              " impurity effect is asymmetric in polarity)\n");
  bench::save_csv(out, "table3_charge_impurity");
  return 0;
}
