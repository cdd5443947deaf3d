#include "gnr/hamiltonian.hpp"

#include <limits>
#include <map>
#include <stdexcept>

#include "common/constants.hpp"
#include "common/contracts.hpp"

namespace gnrfet::gnr {

double hermiticity_error(const BlockTridiagonal& h) {
  double err = 0.0;
  for (const auto& d : h.diag) {
    for (size_t i = 0; i < d.rows(); ++i) {
      for (size_t j = 0; j <= i; ++j) {
        const auto delta = d(i, j) - std::conj(d(j, i));
        if (!std::isfinite(delta.real()) || !std::isfinite(delta.imag())) {
          return std::numeric_limits<double>::infinity();
        }
        err = std::max(err, std::abs(delta));
      }
    }
  }
  for (const auto& u : h.upper) {
    for (size_t i = 0; i < u.rows(); ++i) {
      for (size_t j = 0; j < u.cols(); ++j) {
        const auto v = u(i, j);
        if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
          return std::numeric_limits<double>::infinity();
        }
      }
    }
  }
  return err;
}

size_t BlockTridiagonal::total_dim() const {
  size_t n = 0;
  for (const auto& d : diag) n += d.rows();
  return n;
}

BlockTridiagonal build_hamiltonian(const Lattice& lat, const TightBindingParams& params,
                                   const std::vector<double>& onsite_eV) {
  if (onsite_eV.size() != lat.atoms().size()) {
    throw std::invalid_argument("build_hamiltonian: onsite size mismatch");
  }
  GNRFET_REQUIRE("gnr", "finite-onsite", contracts::all_finite(onsite_eV),
                 "onsite energy array contains NaN/inf (poisoned potential?)");
  GNRFET_REQUIRE("gnr", "finite-hopping",
                 std::isfinite(params.hopping_eV) && std::isfinite(params.edge_delta),
                 "tight-binding parameters contain NaN/inf");
  const auto& slices = lat.slice_atoms();
  const size_t ns = slices.size();

  // Map global atom index -> (slice, position within slice).
  std::vector<std::pair<size_t, size_t>> where(lat.atoms().size());
  for (size_t s = 0; s < ns; ++s) {
    for (size_t k = 0; k < slices[s].size(); ++k) where[slices[s][k]] = {s, k};
  }

  BlockTridiagonal h;
  h.diag.reserve(ns);
  h.upper.reserve(ns - 1);
  for (size_t s = 0; s < ns; ++s) {
    linalg::CMatrix d(slices[s].size(), slices[s].size());
    for (size_t k = 0; k < slices[s].size(); ++k) d(k, k) = onsite_eV[slices[s][k]];
    h.diag.push_back(std::move(d));
  }
  for (size_t s = 0; s + 1 < ns; ++s) {
    h.upper.emplace_back(slices[s].size(), slices[s + 1].size());
  }

  const double t = params.hopping_eV;
  for (const auto& bond : lat.bonds()) {
    const auto [sa, ka] = where[bond.a];
    const auto [sb, kb] = where[bond.b];
    const linalg::cplx v = -t * bond.scale;
    if (sa == sb) {
      h.diag[sa](ka, kb) += v;
      h.diag[sa](kb, ka) += std::conj(v);
    } else if (sb == sa + 1) {
      h.upper[sa](ka, kb) += v;
    } else if (sa == sb + 1) {
      h.upper[sb](kb, ka) += std::conj(v);
    } else {
      throw std::logic_error("build_hamiltonian: bond spans more than one slice");
    }
  }
  return h;
}

BlockTridiagonal build_hamiltonian(const Lattice& lat, const TightBindingParams& params) {
  return build_hamiltonian(lat, params, std::vector<double>(lat.atoms().size(), 0.0));
}

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

}  // namespace gnrfet::gnr
