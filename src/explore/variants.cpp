#include "explore/variants.hpp"

namespace gnrfet::explore {

namespace {
double pct(double value, double nominal) { return 100.0 * (value / nominal - 1.0); }
}  // namespace

circuit::InverterMetrics nominal_inverter_metrics(DesignKit& kit) {
  const circuit::InverterModels nominal = kit.inverter(kPointB_VT);
  return circuit::measure_inverter(nominal, nominal, kPointB_VDD);
}

std::vector<VariationEntry> run_variation_study(DesignKit& kit,
                                                const std::vector<VariantSpec>& n_variants,
                                                const std::vector<VariantSpec>& p_variants) {
  const circuit::InverterModels nominal = kit.inverter(kPointB_VT);
  const circuit::InverterMetrics base = circuit::measure_inverter(nominal, nominal, kPointB_VDD);

  std::vector<VariationEntry> out;
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
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace gnrfet::explore
