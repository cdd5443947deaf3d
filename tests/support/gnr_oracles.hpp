#pragma once

#include <vector>

#include "gnr/hamiltonian.hpp"

/// Test oracles of the gnr layer: the bulk unit cell of the infinite
/// A-GNR and its 1D band structure (k-space diagonalization), which
/// validate the Hamiltonian and the mode-space band gap per GNR index.
namespace gnrfet::gnr {

/// Bulk unit-cell Hamiltonian of the infinite ribbon: H00 is the 2N x 2N
/// Hamiltonian of two adjacent slices, H01 couples a cell to the next one.
struct UnitCell {
  linalg::CMatrix h00;
  linalg::CMatrix h01;
  double period_nm = 0.0;
};

UnitCell unit_cell_hamiltonian(int n_index, const TightBindingParams& params);

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
