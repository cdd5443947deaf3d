#include "poisson/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gnrfet::poisson {

Domain::Domain(const GridSpec& spec) : spec_(spec) {
  if (spec.nx < 3 || spec.ny < 3 || spec.nz < 3) {
    throw std::invalid_argument("poisson::Domain: need at least 3 nodes per axis");
  }
  eps_r_.assign(spec.num_nodes(), 1.0);
  electrode_.assign(spec.num_nodes(), -1);
}

void Domain::paint_permittivity(const Box& box, double eps_r) {
  for (size_t i = 0; i < spec_.nx; ++i) {
    for (size_t j = 0; j < spec_.ny; ++j) {
      for (size_t k = 0; k < spec_.nz; ++k) {
        if (box.contains(spec_.x(i), spec_.y(j), spec_.z(k))) {
          eps_r_[spec_.index(i, j, k)] = eps_r;
        }
      }
    }
  }
}

int Domain::add_electrode(const Box& box) {
  const int id = num_electrodes_++;
  for (size_t i = 0; i < spec_.nx; ++i) {
    for (size_t j = 0; j < spec_.ny; ++j) {
      for (size_t k = 0; k < spec_.nz; ++k) {
        if (box.contains(spec_.x(i), spec_.y(j), spec_.z(k))) {
          electrode_[spec_.index(i, j, k)] = id;
        }
      }
    }
  }
  return id;
}

namespace {
struct CicWeights {
  size_t i0, j0, k0;
  double fx, fy, fz;
};

CicWeights cic(const GridSpec& s, double x, double y, double z) {
  const double gx = std::clamp((x - s.x0) / s.dx, 0.0, static_cast<double>(s.nx - 1) - 1e-9);
  const double gy = std::clamp((y - s.y0) / s.dy, 0.0, static_cast<double>(s.ny - 1) - 1e-9);
  const double gz = std::clamp((z - s.z0) / s.dz, 0.0, static_cast<double>(s.nz - 1) - 1e-9);
  CicWeights w;
  w.i0 = static_cast<size_t>(gx);
  w.j0 = static_cast<size_t>(gy);
  w.k0 = static_cast<size_t>(gz);
  w.fx = gx - static_cast<double>(w.i0);
  w.fy = gy - static_cast<double>(w.j0);
  w.fz = gz - static_cast<double>(w.k0);
  return w;
}
}  // namespace

Domain::CicStencil Domain::stencil(double x, double y, double z) const {
  const CicWeights w = cic(spec_, x, y, z);
  CicStencil st;
  size_t p = 0;
  for (int di = 0; di < 2; ++di) {
    for (int dj = 0; dj < 2; ++dj) {
      for (int dk = 0; dk < 2; ++dk) {
        st.weight[p] = (di ? w.fx : 1.0 - w.fx) * (dj ? w.fy : 1.0 - w.fy) *
                       (dk ? w.fz : 1.0 - w.fz);
        st.node[p] = spec_.index(w.i0 + static_cast<size_t>(di), w.j0 + static_cast<size_t>(dj),
                                 w.k0 + static_cast<size_t>(dk));
        ++p;
      }
    }
  }
  return st;
}

void Domain::deposit_charge(double x, double y, double z, double charge_e,
                            std::vector<double>& rho) const {
  if (rho.size() != spec_.num_nodes()) {
    throw std::invalid_argument("deposit_charge: rho size mismatch");
  }
  const CicStencil st = stencil(x, y, z);
  for (size_t p = 0; p < 8; ++p) rho[st.node[p]] += st.weight[p] * charge_e;
}

}  // namespace gnrfet::poisson
