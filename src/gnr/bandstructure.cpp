#include "gnr/bandstructure.hpp"

#include <cmath>
#include <numbers>

#include "linalg/eig.hpp"

namespace gnrfet::gnr {

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
