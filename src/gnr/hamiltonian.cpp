#include "gnr/hamiltonian.hpp"

#include <limits>
#include <map>
#include <stdexcept>

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

}  // namespace gnrfet::gnr
