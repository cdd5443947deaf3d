#pragma once

#include <vector>

#include "gnr/lattice.hpp"
#include "linalg/dense.hpp"

/// pz-orbital tight-binding Hamiltonians for A-GNRs in the block-tridiagonal
/// layout consumed by the recursive Green's function solver.
namespace gnrfet::gnr {

/// Block-tridiagonal Hermitian matrix: diagonal blocks H[i][i] and
/// super-diagonal coupling blocks H[i][i+1] (sub-diagonal = adjoint).
/// Blocks may have different sizes (slice sizes alternate for odd N).
struct BlockTridiagonal {
  std::vector<linalg::CMatrix> diag;
  std::vector<linalg::CMatrix> upper;  ///< upper[i] couples slice i -> i+1

  size_t num_blocks() const { return diag.size(); }
  size_t total_dim() const;
};

/// Largest |H_ij - conj(H_ji)| over the diagonal blocks (the off-diagonal
/// blocks are Hermitian by the storage convention), or infinity when any
/// entry is non-finite. The NEGF layer requires this to be ~0 on entry:
/// a non-Hermitian Hamiltonian silently breaks the spectral sum rule.
double hermiticity_error(const BlockTridiagonal& h);

/// Parameters of the pz model.
struct TightBindingParams {
  double hopping_eV = 2.7;   ///< paper value
  double edge_delta = 0.12;  ///< Son-Cohen-Louie edge relaxation
};

/// Build the device Hamiltonian for `lat` with the given per-atom onsite
/// energies (eV); onsite.size() must equal lat.atoms().size(). The sign
/// convention is H_ij = -t for bonded neighbours, so the pz bands are
/// symmetric about zero and the local charge-neutrality level of slice i
/// equals the local electrostatic mid-gap energy.
BlockTridiagonal build_hamiltonian(const Lattice& lat, const TightBindingParams& params,
                                   const std::vector<double>& onsite_eV);

/// Same with zero onsite energies.
BlockTridiagonal build_hamiltonian(const Lattice& lat, const TightBindingParams& params);

}  // namespace gnrfet::gnr
