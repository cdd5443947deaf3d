#include "device/geometry.hpp"

#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/constants.hpp"
#include "negf/transport.hpp"

namespace gnrfet::device {

namespace {

/// 1.5 nm of SiO2 above and below the ribbon.
constexpr double kOxideThickness_nm = 1.5;
constexpr double kOxideEpsR = 3.9;
/// Gap between the S/D planes and the end columns.
constexpr double kContactMargin_nm = 0.30;
/// t = 2.7 eV with the Son-Cohen-Louie edge relaxation.
constexpr gnr::TightBindingParams kTightBinding{};

gnr::Lattice make_lattice(const DeviceSpec& s) {
  const int slices = gnr::Lattice::slices_for_length(s.channel_length_nm);
  return gnr::Lattice::armchair(s.n_index, slices, kTightBinding.edge_delta);
}

/// Snap a grid so that `span` is covered by an integer number of steps of
/// roughly `target` size; returns (count, step).
std::pair<size_t, double> snap(double span, double target) {
  const size_t cells = std::max<size_t>(2, static_cast<size_t>(std::round(span / target)));
  return {cells + 1, span / static_cast<double>(cells)};
}

/// Every field but the impurities, at the stream's precision.
void write_geometry_fields(std::ostream& os, const DeviceSpec& s) {
  os << "N=" << s.n_index << ";L=" << s.channel_length_nm << ";tox=" << kOxideThickness_nm
     << ";eps=" << kOxideEpsR << ";t=" << kTightBinding.hopping_eV
     << ";delta=" << kTightBinding.edge_delta << ";gamma=" << negf::kContactGamma_eV
     << ";modes=" << s.num_modes << ";cm=" << kContactMargin_nm
     << ";lm=" << s.lateral_margin_nm << ";h=" << s.grid_step_nm;
}
}  // namespace

std::string DeviceSpec::cache_key() const {
  std::ostringstream os;
  os.precision(10);
  write_geometry_fields(os, *this);
  for (const auto& imp : impurities) {
    os << ";imp(" << imp.charge_e << "," << imp.x_nm << "," << imp.offset_y_nm << ","
       << imp.z_nm << ")";
  }
  return os.str();
}

std::string DeviceSpec::geometry_key() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  write_geometry_fields(os, *this);
  return os.str();
}

DeviceGeometry::DeviceGeometry(const DeviceSpec& spec)
    : spec_(spec),
      lattice_(make_lattice(spec)),
      modes_(gnr::build_mode_set(spec.n_index, kTightBinding, spec.num_modes)) {
  const double lat_len = lattice_.length_nm();
  const double width = lattice_.width_nm();
  x_offset_ = kContactMargin_nm;
  y_offset_ = spec.lateral_margin_nm;

  poisson::GridSpec g;
  const double len_x = lat_len + 2.0 * kContactMargin_nm;
  const double len_y = width + 2.0 * spec.lateral_margin_nm;
  const double len_z = 2.0 * kOxideThickness_nm;
  const auto [nx, dx] = snap(len_x, spec.grid_step_nm);
  const auto [ny, dy] = snap(len_y, spec.grid_step_nm);
  // Force an even cell count in z so the GNR plane z = 0 is a grid plane.
  size_t nz_cells = std::max<size_t>(2, static_cast<size_t>(std::round(len_z / spec.grid_step_nm)));
  if (nz_cells % 2 == 1) ++nz_cells;
  g.nx = nx;
  g.ny = ny;
  g.nz = nz_cells + 1;
  g.dx = dx;
  g.dy = dy;
  g.dz = len_z / static_cast<double>(nz_cells);
  g.x0 = 0.0;
  g.y0 = 0.0;
  g.z0 = -kOxideThickness_nm;

  domain_ = std::make_unique<poisson::Domain>(g);
  // Whole stack is gate oxide.
  domain_->paint_permittivity({-1.0, len_x + 1.0, -1.0, len_y + 1.0, -len_z, len_z},
                              kOxideEpsR);
  // Electrodes are registered as source, drain, bottom gate, top gate;
  // electrode_voltages() gives both gate planes vg.
  const double eps_len = 1e-6;
  electrodes_.source = domain_->add_electrode(
      {-eps_len, eps_len, -1.0, len_y + 1.0, g.z0 + 0.5 * g.dz, -g.z0 - 0.5 * g.dz});
  electrodes_.drain = domain_->add_electrode(
      {len_x - eps_len, len_x + eps_len, -1.0, len_y + 1.0, g.z0 + 0.5 * g.dz,
       -g.z0 - 0.5 * g.dz});
  electrodes_.gate = domain_->add_electrode(
      {-1.0, len_x + 1.0, -1.0, len_y + 1.0, g.z0 - eps_len, g.z0 + eps_len});
  const int gate_top = domain_->add_electrode(
      {-1.0, len_x + 1.0, -1.0, len_y + 1.0, -g.z0 - eps_len, -g.z0 + eps_len});
  if (gate_top != electrodes_.gate + 1) {
    throw std::logic_error("DeviceGeometry: unexpected electrode id ordering");
  }

  assembly_ = std::make_unique<poisson::Assembly>(*domain_);

  impurity_charge_.assign(g.num_nodes(), 0.0);
  for (const auto& imp : spec.impurities) {
    if (imp.charge_e == 0.0) continue;
    const double x = x_offset_ + imp.x_nm;
    const double y = y_offset_ + 0.5 * width + imp.offset_y_nm;
    domain_->deposit_charge(x, y, imp.z_nm, imp.charge_e, impurity_charge_);
  }
}

double DeviceGeometry::column_x(size_t c) const {
  return x_offset_ + lattice_.column_x_nm().at(c);
}

double DeviceGeometry::line_y(int j) const {
  return y_offset_ + lattice_.dimer_line_y_nm(j);
}

std::vector<poisson::Domain::CicStencil> DeviceGeometry::ribbon_stencils() const {
  const size_t ncol = lattice_.column_x_nm().size();
  const size_t nlines = static_cast<size_t>(lattice_.n_index());
  std::vector<poisson::Domain::CicStencil> stencils(ncol * nlines);
  for (size_t c = 0; c < ncol; ++c) {
    for (size_t j = 0; j < nlines; ++j) {
      stencils[c * nlines + j] = domain_->stencil(column_x(c), line_y(static_cast<int>(j)), 0.0);
    }
  }
  return stencils;
}

std::vector<double> DeviceGeometry::electrode_voltages(double vs, double vd, double vg) const {
  // Order: source, drain, gate(bottom), gate(top).
  return {vs, vd, vg, vg};
}

}  // namespace gnrfet::device
