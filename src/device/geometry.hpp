#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gnr/lattice.hpp"
#include "gnr/modespace.hpp"
#include "poisson/assembly.hpp"
#include "poisson/grid.hpp"

/// GNRFET device description and the derived simulation geometry.
///
/// Paper device (Sec. 2): 15 nm armchair GNR channel, double-gate through
/// 1.5 nm SiO2 (eps_r = 3.9), metal Schottky source/drain contacts with
/// barrier Eg/2 (mid-gap pinning). Charge impurities sit in the gate oxide
/// 0.4 nm above the GNR plane near the source.
namespace gnrfet::device {

struct ChargeImpurity {
  double charge_e = 0.0;    ///< +-1, +-2 in units of e (0 = none)
  double x_nm = 1.0;        ///< distance from the source end of the channel
  double offset_y_nm = 0.0; ///< lateral offset from the ribbon centerline
  double z_nm = 0.4;        ///< height above the GNR plane (inside the oxide)
};

/// The gate stack, the tight-binding parameters (gnr::TightBindingParams{}),
/// the contact broadening (negf::kContactGamma_eV) and the 0.30 nm gap
/// between the S/D planes and the end columns are the paper's, the same
/// for every device; the spec holds what varies.
struct DeviceSpec {
  int n_index = 12;
  double channel_length_nm = 15.0;
  int num_modes = 3;  ///< transport subbands kept (per spin pair)

  /// Electrostatics margin and mesh.
  // Test seam: the tests' small, fast devices shrink the oxide beside the ribbon.
  double lateral_margin_nm = 3.0;  ///< oxide extent beyond each ribbon edge
  // Test seam: the tests' small, fast devices use a coarser mesh.
  double grid_step_nm = 0.25;  ///< target spacing (snapped per axis)

  std::vector<ChargeImpurity> impurities;

  /// Stable serialization of everything that affects generated tables;
  /// used as the cache key payload.
  std::string cache_key() const;

  /// Exact serialization (max_digits10) of every field but the impurities:
  /// specs with equal keys have the same grid, electrodes and ribbon, so
  /// they share one capacitance matrix (device/selfconsistent.hpp).
  std::string geometry_key() const;
};

/// Electrode ids within the device domain.
struct Electrodes {
  int source = -1;
  int drain = -1;
  int gate = -1;  ///< top and bottom gate share one id (double gate)
};

/// All geometry-derived state shared across bias points.
class DeviceGeometry {
 public:
  explicit DeviceGeometry(const DeviceSpec& spec);

  const DeviceSpec& spec() const { return spec_; }
  const gnr::Lattice& lattice() const { return lattice_; }
  const gnr::ModeSet& modes() const { return modes_; }
  const poisson::Domain& domain() const { return *domain_; }
  const poisson::Assembly& assembly() const { return *assembly_; }

  /// Fixed impurity charge deposited on the grid (units of e).
  const std::vector<double>& impurity_charge() const { return impurity_charge_; }

  /// Grid coordinates of lattice column c / dimer line j (the GNR plane
  /// sits at z = 0; lattice x is offset by the contact margin).
  double column_x(size_t c) const;
  double line_y(int j) const;

  /// Trilinear stencil of every ribbon sample point, [c * nlines + j]; the
  /// GNR plane sits at z = 0.
  std::vector<poisson::Domain::CicStencil> ribbon_stencils() const;

  /// Electrode voltage vector ordered by electrode id.
  std::vector<double> electrode_voltages(double vs, double vd, double vg) const;

 private:
  DeviceSpec spec_;
  gnr::Lattice lattice_;
  gnr::ModeSet modes_;
  std::unique_ptr<poisson::Domain> domain_;
  std::unique_ptr<poisson::Assembly> assembly_;
  Electrodes electrodes_;
  std::vector<double> impurity_charge_;
  double x_offset_ = 0.0;
  double y_offset_ = 0.0;
};

}  // namespace gnrfet::device
