#include "gnr/lattice.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "common/constants.hpp"

namespace gnrfet::gnr {

namespace {
constexpr double kA = constants::kCarbonBond_nm;       // C-C bond aCC
const double kRowPitch = std::sqrt(3.0) / 2.0 * kA;    // dimer-line spacing
}  // namespace

int Lattice::slices_for_length(double length_nm) {
  if (length_nm <= 0.0) throw std::invalid_argument("Lattice: length must be positive");
  return static_cast<int>(std::ceil(length_nm / (1.5 * kA)));
}

Lattice Lattice::armchair(int n_index, int num_slices, double edge_delta) {
  if (n_index < 3) throw std::invalid_argument("Lattice: GNR index must be >= 3");
  if (num_slices < 2) throw std::invalid_argument("Lattice: need at least 2 slices");
  Lattice lat;
  lat.n_ = n_index;
  lat.num_slices_ = num_slices;
  lat.slice_atoms_.resize(static_cast<size_t>(num_slices));

  // Slice m holds two atomic columns: A-column at x = 1.5*aCC*m and
  // B-column at x = 1.5*aCC*m + aCC, populated on dimer lines j with
  // j = m (mod 2).
  for (int m = 0; m < num_slices; ++m) {
    const double xa = 1.5 * kA * m;
    const double xb = xa + kA;
    for (int j = (m % 2); j < n_index; j += 2) {
      const double y = j * kRowPitch;
      lat.slice_atoms_[static_cast<size_t>(m)].push_back(lat.atoms_.size());
      lat.atoms_.push_back({xa, y, j, m});
      lat.slice_atoms_[static_cast<size_t>(m)].push_back(lat.atoms_.size());
      lat.atoms_.push_back({xb, y, j, m});
    }
    lat.column_x_.push_back(xa);
    lat.column_x_.push_back(xb);
  }

  // Distance-based neighbor search (cutoff a little over one bond length).
  // The lattice is small enough (~2500 atoms max) for the O(n^2) scan
  // restricted to nearby slices.
  const double cutoff2 = std::pow(1.1 * kA, 2);
  for (size_t i = 0; i < lat.atoms_.size(); ++i) {
    for (size_t j = i + 1; j < lat.atoms_.size(); ++j) {
      const Atom& a = lat.atoms_[i];
      const Atom& b = lat.atoms_[j];
      if (std::abs(a.slice - b.slice) > 1) continue;
      const double dx = a.x_nm - b.x_nm;
      const double dy = a.y_nm - b.y_nm;
      if (dx * dx + dy * dy > cutoff2) continue;
      double scale = 1.0;
      const bool edge_line = (a.dimer_line == 0 && b.dimer_line == 0) ||
                             (a.dimer_line == n_index - 1 && b.dimer_line == n_index - 1);
      // Edge relaxation applies to the dimer bonds along the armchair
      // edge, i.e. intra-line bonds on the outermost dimer lines.
      if (edge_line && std::abs(dy) < 1e-9) scale = 1.0 + edge_delta;
      lat.bonds_.push_back({i, j, scale});
    }
  }
  return lat;
}

Lattice Lattice::with_vacancy(size_t atom_index) const {
  if (atom_index >= atoms_.size()) {
    throw std::invalid_argument("with_vacancy: atom index out of range");
  }
  Lattice out;
  out.n_ = n_;
  out.num_slices_ = num_slices_;
  out.column_x_ = column_x_;
  out.slice_atoms_.resize(slice_atoms_.size());

  std::vector<size_t> remap(atoms_.size(), SIZE_MAX);
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i == atom_index) continue;
    remap[i] = out.atoms_.size();
    out.atoms_.push_back(atoms_[i]);
    out.slice_atoms_[static_cast<size_t>(atoms_[i].slice)].push_back(remap[i]);
  }
  for (const auto& s : out.slice_atoms_) {
    if (s.empty()) throw std::invalid_argument("with_vacancy: slice would become empty");
  }
  for (const auto& b : bonds_) {
    if (b.a == atom_index || b.b == atom_index) continue;
    out.bonds_.push_back({remap[b.a], remap[b.b], b.scale});
  }
  return out;
}

Lattice Lattice::with_edge_roughness(double removal_probability, unsigned seed) const {
  if (removal_probability < 0.0 || removal_probability >= 1.0) {
    throw std::invalid_argument("with_edge_roughness: probability must be in [0, 1)");
  }
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  // Collect removals first (indices shift after each removal), highest
  // index first so earlier indices stay valid.
  std::vector<size_t> removals;
  for (size_t i = 0; i < atoms_.size(); ++i) {
    const bool edge = atoms_[i].dimer_line == 0 || atoms_[i].dimer_line == n_ - 1;
    if (edge && u(rng) < removal_probability) removals.push_back(i);
  }
  Lattice out = *this;
  for (auto it = removals.rbegin(); it != removals.rend(); ++it) {
    out = out.with_vacancy(*it);
  }
  return out;
}

double Lattice::width_nm() const { return (n_ - 1) * kRowPitch; }

double Lattice::length_nm() const {
  double lo = 1e300, hi = -1e300;
  for (const auto& a : atoms_) {
    lo = std::min(lo, a.x_nm);
    hi = std::max(hi, a.x_nm);
  }
  return hi - lo;
}

double Lattice::dimer_line_y_nm(int j) const { return j * kRowPitch; }

}  // namespace gnrfet::gnr
