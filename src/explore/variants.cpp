#include "explore/variants.hpp"

namespace gnrfet::explore {

namespace {
double pct(double value, double nominal) { return 100.0 * (value / nominal - 1.0); }
}  // namespace

VariationStudy run_variation_study(DesignKit& kit, const std::vector<VariantSpec>& n_variants,
                                   const std::vector<VariantSpec>& p_variants) {
  const circuit::InverterModels nominal = kit.inverter(kPointB_VT);
  VariationStudy study;
  study.nominal = circuit::measure_inverter(nominal, nominal, kPointB_VDD);
  const circuit::InverterMetrics& base = study.nominal;

  for (const auto& pv : p_variants) {
    for (const auto& nv : n_variants) {
      VariationEntry e;
      e.n_variant = nv;
      e.p_variant = pv;
      const int affected_counts[2] = {1, 4};
      for (int s = 0; s < 2; ++s) {
        const circuit::InverterModels m =
            kit.inverter_with_variants(nv, pv, affected_counts[s], kPointB_VT);
        // The FO4 load stays nominal; the variation hits the driver.
        e.metrics[s] = circuit::measure_inverter(m, nominal, kPointB_VDD);
        if (e.metrics[s].ok && base.ok) {
          e.delay_pct[s] = pct(e.metrics[s].delay_s, base.delay_s);
          e.static_power_pct[s] = pct(e.metrics[s].static_power_W, base.static_power_W);
          e.dynamic_power_pct[s] = pct(e.metrics[s].dynamic_power_W, base.dynamic_power_W);
          e.snm_pct[s] = pct(e.metrics[s].snm_V, base.snm_V);
        }
      }
      study.entries.push_back(e);
    }
  }
  return study;
}

}  // namespace gnrfet::explore
