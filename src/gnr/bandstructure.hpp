#pragma once

#include <vector>

#include "gnr/hamiltonian.hpp"

/// 1D band structure of infinite A-GNRs, used to validate the Hamiltonian,
/// pick mode-space subbands, and report band gaps per GNR index.
namespace gnrfet::gnr {

struct BandStructure {
  /// Wavevectors [1/nm] in [0, pi/period].
  std::vector<double> k;
  /// bands[ik] = all 2N eigenvalues (eV), ascending.
  std::vector<std::vector<double>> bands;

  /// Conduction-band minimum (smallest eigenvalue > mid) and valence-band
  /// maximum over the sampled k points; mid = 0 for the pz model.
  double conduction_minimum() const;
  double valence_maximum() const;
  double band_gap() const { return conduction_minimum() - valence_maximum(); }
};

/// Sample the ribbon band structure with `num_k` points.
BandStructure compute_bands(int n_index, const TightBindingParams& params, int num_k = 64);

/// Band gap (eV) of the N-index A-GNR under `params`.
double band_gap(int n_index, const TightBindingParams& params);

}  // namespace gnrfet::gnr
