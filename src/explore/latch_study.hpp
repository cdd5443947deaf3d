#pragma once

#include "circuit/snm.hpp"
#include "explore/tech_explore.hpp"

/// Latch butterfly study of Fig. 7: nominal latch, single-GNR-affected and
/// all-GNRs-affected worst case (n-FET: N=9 with +q, p-FET: N=18 with -q),
/// reporting SNM and latch static power (both inverters of the latch share
/// the same variants, as in the paper).
namespace gnrfet::explore {

struct LatchCase {
  const char* label = "";
  circuit::Vtc vtc;       ///< both latch inverters are identical
  double snm_V = 0.0;     ///< min butterfly lobe
  double lobe1_V = 0.0;
  double lobe2_V = 0.0;
  double static_power_W = 0.0;  ///< worst stable state of the latch
};

/// The latch at operating point B (kPointB_VT, kPointB_VDD). Returns
/// {nominal, 1-of-4 affected, 4-of-4 affected}.
std::vector<LatchCase> run_latch_study(DesignKit& kit);

}  // namespace gnrfet::explore
