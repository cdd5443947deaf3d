#pragma once

#include <vector>

#include "gnr/hamiltonian.hpp"

/// Uncoupled mode-space reduction of the A-GNR pz Hamiltonian.
///
/// With a transverse-uniform potential the N-index armchair ribbon
/// decouples under the hard-wall sine transform
///     phi_p(j) = sqrt(2/(N+1)) sin(p*pi*(j+1)/(N+1)),  j = 0..N-1
/// into N one-dimensional SSH-like chains with alternating hoppings
///     t_p = t * (1 + delta*(phi_p(0)^2 + phi_p(N-1)^2))   (dimer bonds,
///           including the first-order edge-relaxation correction)
///     b_p = 2 t cos(p*pi/(N+1))                           (staircase bonds).
/// Chain site c maps to atomic column c of the lattice (two sites per RGF
/// slice); the mode potential is the transverse average of the slice
/// potential with weights w_p(j) = phi_p(j)^2.
///
/// Edge relaxation couples modes at second order; the uncoupled
/// approximation keeps only the diagonal correction and is validated
/// against the real-space solver in tests (band gaps and I-V agreement).
namespace gnrfet::gnr {

struct Mode {
  int p = 0;              ///< transverse quantum number, 1..N
  double t_dimer = 0.0;   ///< intra-dimer hopping incl. edge correction (eV)
  double t_stair = 0.0;   ///< staircase hopping 2t cos(theta_p) (eV, signed)
  /// Chains p and N+1-p are gauge-equivalent (b -> -b) and describe the
  /// same physical subband pair, so only one representative per pair is
  /// kept; the self-paired middle mode of odd N carries degeneracy 0.5.
  double degeneracy = 1.0;
  std::vector<double> weight;  ///< w_p(j) over dimer lines, sums to 1

  /// Bulk band-edge energy |E| of this subband: min over k of |E_p(k)|.
  double band_edge_eV() const;
  /// Bulk band top (max |E|) of this subband.
  double band_top_eV() const;
};

struct ModeSet {
  int n_index = 0;
  TightBindingParams params;
  std::vector<Mode> modes;  ///< sorted by ascending band edge

  /// Band gap implied by the lowest mode (2 * its band edge).
  double band_gap_eV() const;
};

/// Build the `num_modes` lowest subbands of the N-index ribbon.
ModeSet build_mode_set(int n_index, const TightBindingParams& params, int num_modes);

}  // namespace gnrfet::gnr
