#include "poisson/assembly.hpp"

#include <limits>
#include <stdexcept>

#include "common/constants.hpp"

namespace gnrfet::poisson {

namespace {
/// Harmonic mean of node permittivities across a face.
double face_eps(double a, double b) { return 2.0 * a * b / (a + b); }
}  // namespace

Assembly::Assembly(const Domain& domain) : domain_(domain) {
  const GridSpec& s = domain.spec();
  const size_t n = s.num_nodes();
  free_index_.assign(n, std::numeric_limits<size_t>::max());
  for (size_t node = 0; node < n; ++node) {
    if (domain.electrode_at(node) < 0) {
      free_index_[node] = free_nodes_.size();
      free_nodes_.push_back(node);
    }
  }

  linalg::SparseBuilder builder(free_nodes_.size());
  const double e0 = constants::kEpsilon0_e_per_V_nm;
  // Face coupling coefficients: eps * area / distance, per axis.
  const double cx = e0 * (s.dy * s.dz) / s.dx;
  const double cy = e0 * (s.dx * s.dz) / s.dy;
  const double cz = e0 * (s.dx * s.dy) / s.dz;

  auto visit_neighbor = [&](size_t row, size_t node, size_t nbr, double c) {
    const double eps = face_eps(domain.eps_r(node), domain.eps_r(nbr));
    const double w = c * eps;
    builder.add(row, row, w);
    const size_t nbr_free = free_index_[nbr];
    if (nbr_free != std::numeric_limits<size_t>::max()) {
      builder.add(row, nbr_free, -w);
    } else {
      links_.push_back({row, domain.electrode_at(nbr), w});
    }
  };

  for (size_t f = 0; f < free_nodes_.size(); ++f) {
    const size_t node = free_nodes_[f];
    const size_t k = node % s.nz;
    const size_t j = (node / s.nz) % s.ny;
    const size_t i = node / (s.nz * s.ny);
    if (i > 0) visit_neighbor(f, node, s.index(i - 1, j, k), cx);
    if (i + 1 < s.nx) visit_neighbor(f, node, s.index(i + 1, j, k), cx);
    if (j > 0) visit_neighbor(f, node, s.index(i, j - 1, k), cy);
    if (j + 1 < s.ny) visit_neighbor(f, node, s.index(i, j + 1, k), cy);
    if (k > 0) visit_neighbor(f, node, s.index(i, j, k - 1), cz);
    if (k + 1 < s.nz) visit_neighbor(f, node, s.index(i, j, k + 1), cz);
  }
  matrix_ = linalg::SparseMatrix(builder);
}

std::vector<double> Assembly::rhs(const std::vector<double>& electrode_voltages,
                                  const std::vector<double>& rho_e) const {
  if (static_cast<int>(electrode_voltages.size()) != domain_.num_electrodes()) {
    throw std::invalid_argument("Assembly::rhs: electrode voltage count mismatch");
  }
  if (rho_e.size() != domain_.spec().num_nodes()) {
    throw std::invalid_argument("Assembly::rhs: rho size mismatch");
  }
  std::vector<double> b(free_nodes_.size());
  for (size_t f = 0; f < free_nodes_.size(); ++f) b[f] = rho_e[free_nodes_[f]];
  for (const auto& link : links_) {
    b[link.row] += link.coeff * electrode_voltages[static_cast<size_t>(link.electrode)];
  }
  return b;
}

}  // namespace gnrfet::poisson
