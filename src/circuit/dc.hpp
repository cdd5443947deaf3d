#pragma once

#include "circuit/mna.hpp"

/// Newton DC operating-point solver with source-stepping homotopy.
namespace gnrfet::circuit {

struct DcResult {
  bool converged = false;
  std::vector<double> x;  ///< node voltages + branch currents
};

/// Solve at full sources under kDcNewton. `initial` (may be empty) seeds
/// Newton; if direct Newton fails, sources are ramped from 0 in 20 steps
/// (each step warm-started from the last). A result with
/// `converged == false` is counted as `dc_unconverged` in metrics.
DcResult solve_dc(const Circuit& ckt, const std::vector<double>& initial = {});

}  // namespace gnrfet::circuit
