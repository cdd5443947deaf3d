#pragma once

#include "linalg/sparse.hpp"
#include "poisson/grid.hpp"

/// Assembly of the discrete Poisson operator div(eps grad phi) = -rho on
/// the free (non-electrode) nodes.
///
/// The 7-point flux-conservative stencil integrates the flux over each
/// node's control volume with harmonic face permittivities — on this
/// rectilinear grid it coincides with the mass-lumped trilinear-FEM
/// stencil family. Open boundaries get natural zero-flux (Neumann)
/// conditions; Dirichlet neighbours are folded into the right-hand side.
namespace gnrfet::poisson {

class Assembly {
 public:
  explicit Assembly(const Domain& domain);

  /// SPD system matrix over free nodes (units: e/V).
  const linalg::SparseMatrix& matrix() const { return matrix_; }
  size_t num_free() const { return free_nodes_.size(); }
  size_t num_nodes() const { return free_index_.size(); }
  size_t num_electrodes() const { return static_cast<size_t>(domain_.num_electrodes()); }

  /// Right-hand side for given electrode voltages [V] and nodal charge
  /// [e]: b = rho_free + (Dirichlet coupling terms).
  std::vector<double> rhs(const std::vector<double>& electrode_voltages,
                          const std::vector<double>& rho_e) const;

  /// Free-node index of a grid node, or SIZE_MAX if the node is an
  /// electrode node.
  size_t free_index(size_t node) const { return free_index_[node]; }

 private:
  const Domain& domain_;
  std::vector<size_t> free_nodes_;           ///< free -> grid node
  std::vector<size_t> free_index_;           ///< grid node -> free (SIZE_MAX if fixed)
  linalg::SparseMatrix matrix_;
  /// Dirichlet couplings: (free row, electrode id, coefficient).
  struct DirichletLink {
    size_t row;
    int electrode;
    double coeff;
  };
  std::vector<DirichletLink> links_;
};

}  // namespace gnrfet::poisson
