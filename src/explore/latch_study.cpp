#include "explore/latch_study.hpp"

#include <algorithm>

namespace gnrfet::explore {

namespace {

/// The worst case: N=9 with +q in the n-FET, N=18 with -q in the p-FET.
constexpr VariantSpec kWorstN{9, 1.0};
constexpr VariantSpec kWorstP{18, -1.0};

}  // namespace

std::vector<LatchCase> run_latch_study(DesignKit& kit) {
  std::vector<LatchCase> cases;
  // Warm every table the three cases touch before measuring: the
  // nominal device plus the worst-case n-variant and the p-variant's
  // particle-hole mirror (inverter_with_variants negates the p impurity).
  kit.warm({{12, 0.0}, kWorstN, {kWorstP.n_index, -kWorstP.impurity_q}});
  const int affected_counts[3] = {0, 1, 4};
  const char* labels[3] = {"nominal", "single GNR affected", "all GNRs affected"};
  for (int i = 0; i < 3; ++i) {
    LatchCase c;
    c.label = labels[i];
    const circuit::InverterModels m =
        affected_counts[i] == 0
            ? kit.inverter(kPointB_VT)
            : kit.inverter_with_variants(kWorstN, kWorstP, affected_counts[i], kPointB_VT);
    c.vtc = circuit::compute_vtc(m, kPointB_VDD);
    const circuit::Vtc inv = circuit::invert_vtc(c.vtc);
    c.lobe1_V = circuit::butterfly_lobe(c.vtc, c.vtc);
    c.lobe2_V = circuit::butterfly_lobe(inv, inv);
    c.snm_V = std::min(c.lobe1_V, c.lobe2_V);
    // In either stable state one inverter sees a low input and the other a
    // high one: twice the inverter's mean over its two input states.
    c.static_power_W = 2.0 * circuit::inverter_static_power(m, kPointB_VDD);
    cases.push_back(std::move(c));
  }
  return cases;
}

}  // namespace gnrfet::explore
