/// Variability walkthrough: compare the nominal inverter against the
/// paper's worst-case corner (n-FET GNRs narrowed to N=9 with a +q oxide
/// impurity, p-FET widened to N=18 with -q) in both the single-GNR and
/// all-GNRs scenarios, and show the latch butterfly collapse of Fig. 7.
#include <cstdio>

#include "explore/latch_study.hpp"
#include "explore/variants.hpp"

using namespace gnrfet;

int main() {
  explore::DesignKit kit;
  const std::vector<explore::VariantSpec> worst_n = {{9, 1.0}};
  const std::vector<explore::VariantSpec> worst_p = {{18, -1.0}};
  const auto [base, entries] = explore::run_variation_study(kit, worst_n, worst_p);

  std::printf("nominal inverter at VDD=%.1f V, VT=%.2f V:\n", explore::kPointB_VDD,
              explore::kPointB_VT);
  std::printf("  delay %.2f ps | Pstat %.4g uW | Pdyn %.4g uW | SNM %.3f V\n\n",
              base.delay_s * 1e12, base.static_power_W * 1e6, base.dynamic_power_W * 1e6,
              base.snm_V);

  for (const auto& e : entries) {
    for (int s = 0; s < 2; ++s) {
      std::printf("worst corner, %s: delay %+0.f%% | Pstat %+0.f%% | Pdyn %+0.f%% | SNM %+0.f%%\n",
                  s == 0 ? "1 of 4 GNRs" : "4 of 4 GNRs", e.delay_pct[s],
                  e.static_power_pct[s], e.dynamic_power_pct[s], e.snm_pct[s]);
    }
  }

  std::printf("\nlatch butterfly (Fig. 7):\n");
  for (const auto& c : explore::run_latch_study(kit)) {
    std::printf("  %-22s SNM %.3f V, static power %.4g uW\n", c.label, c.snm_V,
                c.static_power_W * 1e6);
  }
  return 0;
}
