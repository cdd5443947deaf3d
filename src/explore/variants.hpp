#pragma once

#include "explore/tech_explore.hpp"

/// The variability/defect study engines behind Tables 2, 3, and 4: measure
/// the FO4 inverter under every n/p variant combination in the 1-of-4 and
/// 4-of-4 scenarios and report percent changes against the nominal design.
namespace gnrfet::explore {

struct VariationEntry {
  VariantSpec n_variant;
  VariantSpec p_variant;
  /// [0] = one GNR affected, [1] = all four GNRs affected.
  circuit::InverterMetrics metrics[2];
  double delay_pct[2] = {0.0, 0.0};
  double static_power_pct[2] = {0.0, 0.0};
  double dynamic_power_pct[2] = {0.0, 0.0};
  double snm_pct[2] = {0.0, 0.0};
};

/// The nominal FO4 inverter at operating point B (kPointB_VT, kPointB_VDD)
/// and every variant pair measured against it.
struct VariationStudy {
  circuit::InverterMetrics nominal;
  std::vector<VariationEntry> entries;  ///< one per (n_variant, p_variant) pair
};

/// Full cross-product study at operating point B.
VariationStudy run_variation_study(DesignKit& kit, const std::vector<VariantSpec>& n_variants,
                                   const std::vector<VariantSpec>& p_variants);

}  // namespace gnrfet::explore
