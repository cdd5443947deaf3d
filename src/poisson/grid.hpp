#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// Structured rectilinear grid for the 3D Poisson equation.
///
/// Units: lengths in nm, potential in volts, charge in units of |e|.
/// Node (i, j, k) sits at (x0 + i dx, y0 + j dy, z0 + k dz); the axes are
/// x = transport, y = ribbon width, z = gate stacking direction.
namespace gnrfet::poisson {

struct GridSpec {
  size_t nx = 0, ny = 0, nz = 0;
  double x0 = 0.0, y0 = 0.0, z0 = 0.0;
  double dx = 0.25, dy = 0.25, dz = 0.25;

  size_t num_nodes() const { return nx * ny * nz; }
  size_t index(size_t i, size_t j, size_t k) const { return (i * ny + j) * nz + k; }
  double x(size_t i) const { return x0 + static_cast<double>(i) * dx; }
  double y(size_t j) const { return y0 + static_cast<double>(j) * dy; }
  double z(size_t k) const { return z0 + static_cast<double>(k) * dz; }
};

/// Axis-aligned box used to paint materials and electrodes.
struct Box {
  double x_lo = 0.0, x_hi = 0.0;
  double y_lo = 0.0, y_hi = 0.0;
  double z_lo = 0.0, z_hi = 0.0;
  bool contains(double x, double y, double z) const {
    return x >= x_lo && x <= x_hi && y >= y_lo && y <= y_hi && z >= z_lo && z <= z_hi;
  }
};

/// Node-level description of the electrostatic domain: relative
/// permittivity per node (face values use harmonic averaging) and
/// electrode membership (-1 for free nodes, otherwise an electrode id
/// whose voltage is supplied at solve time).
class Domain {
 public:
  explicit Domain(const GridSpec& spec);

  const GridSpec& spec() const { return spec_; }

  /// Paint relative permittivity inside a box (later paints override).
  void paint_permittivity(const Box& box, double eps_r);

  /// Declare an electrode (Dirichlet region); returns its id.
  int add_electrode(const Box& box);

  double eps_r(size_t node) const { return eps_r_[node]; }
  int electrode_at(size_t node) const { return electrode_[node]; }
  int num_electrodes() const { return num_electrodes_; }

  /// Deposit a point charge (units of e) with trilinear cloud-in-cell
  /// weights onto `rho` (size num_nodes; accumulated).
  void deposit_charge(double x, double y, double z, double charge_e,
                      std::vector<double>& rho) const;

  /// Trilinear cloud-in-cell stencil of one sample point: the eight
  /// surrounding node indices and weights, in (di, dj, dk) order — the
  /// arithmetic behind deposit_charge(). Fixed point sets
  /// (the ribbon samples of the Gummel loop) build theirs once; their nodes
  /// define the charge nodes of the capacitance-matrix solve.
  struct CicStencil {
    size_t node[8];
    double weight[8];
  };

  CicStencil stencil(double x, double y, double z) const;

 private:
  GridSpec spec_;
  std::vector<double> eps_r_;
  std::vector<int> electrode_;
  int num_electrodes_ = 0;
};

}  // namespace gnrfet::poisson
