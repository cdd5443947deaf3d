#include "support/gnr_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/constants.hpp"
#include "support/linalg_oracles.hpp"

namespace gnrfet::gnr {

UnitCell unit_cell_hamiltonian(int n_index, const TightBindingParams& params) {
  // Build 4 slices (2 unit cells); extract H00 from slices (0,1) and the
  // coupling H01 from slice 1 -> slice 2 embedded in a 2N x 2N frame.
  const Lattice lat = Lattice::armchair(n_index, 4, params.edge_delta);
  // Re-derive onsite zeros; interior bonds of a 4-slice ribbon reproduce
  // all bulk couplings for the middle cell boundary.
  const BlockTridiagonal h = build_hamiltonian(lat, params);
  const size_t n0 = h.diag[0].rows();
  const size_t n1 = h.diag[1].rows();
  const size_t dim = n0 + n1;  // = 2N
  UnitCell cell;
  cell.period_nm = 3.0 * constants::kCarbonBond_nm;
  cell.h00 = linalg::CMatrix(dim, dim);
  for (size_t i = 0; i < n0; ++i) {
    for (size_t j = 0; j < n0; ++j) cell.h00(i, j) = h.diag[0](i, j);
  }
  for (size_t i = 0; i < n1; ++i) {
    for (size_t j = 0; j < n1; ++j) cell.h00(n0 + i, n0 + j) = h.diag[1](i, j);
  }
  for (size_t i = 0; i < n0; ++i) {
    for (size_t j = 0; j < n1; ++j) {
      cell.h00(i, n0 + j) = h.upper[0](i, j);
      cell.h00(n0 + j, i) = std::conj(h.upper[0](i, j));
    }
  }
  // Coupling to the next cell: slice 1 -> slice 2. Slice 2 has the same
  // size/ordering as slice 0 (parity repeats with period 2).
  cell.h01 = linalg::CMatrix(dim, dim);
  for (size_t i = 0; i < n1; ++i) {
    for (size_t j = 0; j < h.diag[2].rows(); ++j) {
      cell.h01(n0 + i, j) = h.upper[1](i, j);
    }
  }
  return cell;
}

double BandStructure::conduction_minimum() const {
  double cb = 1e300;
  for (const auto& bs : bands) {
    for (const double e : bs) {
      if (e > 0.0) cb = std::min(cb, e);
    }
  }
  return cb;
}

double BandStructure::valence_maximum() const {
  double vb = -1e300;
  for (const auto& bs : bands) {
    for (const double e : bs) {
      if (e <= 0.0) vb = std::max(vb, e);
    }
  }
  return vb;
}

BandStructure compute_bands(int n_index, const TightBindingParams& params, int num_k) {
  const UnitCell cell = unit_cell_hamiltonian(n_index, params);
  const size_t dim = cell.h00.rows();
  BandStructure bs;
  bs.k.reserve(static_cast<size_t>(num_k));
  bs.bands.reserve(static_cast<size_t>(num_k));
  for (int ik = 0; ik < num_k; ++ik) {
    const double k = std::numbers::pi / cell.period_nm * ik / (num_k - 1);
    const linalg::cplx phase = std::exp(linalg::cplx(0.0, k * cell.period_nm));
    linalg::CMatrix hk = cell.h00;
    for (size_t i = 0; i < dim; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        hk(i, j) += cell.h01(i, j) * phase + std::conj(cell.h01(j, i)) * std::conj(phase);
      }
    }
    bs.k.push_back(k);
    bs.bands.push_back(linalg::eigh(hk).values);
  }
  return bs;
}

double band_gap(int n_index, const TightBindingParams& params) {
  return compute_bands(n_index, params, 96).band_gap();
}

}  // namespace gnrfet::gnr
