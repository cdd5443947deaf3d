#pragma once

#include <cstddef>
#include <vector>

/// Atomistic geometry of armchair-edge graphene nanoribbons (A-GNRs).
///
/// Conventions (matching the paper and Nakada et al. [12]):
///  - transport direction x, width direction y, lengths in nm;
///  - N = GNR index = number of dimer lines across the width; dimer lines
///    run along x and are spaced sqrt(3)/2 * aCC apart;
///  - width W = (N-1) * sqrt(3)/2 * aCC;
///  - the translational period along x is 3*aCC and contains 2N atoms.
///
/// The ribbon is partitioned into "slices" normal to x for the recursive
/// Green's function: slice m groups the two atomic columns at
/// x = 1.5*aCC*m and x = 1.5*aCC*m + aCC. Slices alternate between
/// even-index and odd-index dimer lines, so for odd N their sizes
/// alternate between N+1 and N-1 (exactly N for even N).
namespace gnrfet::gnr {

struct Atom {
  double x_nm = 0.0;
  double y_nm = 0.0;
  int dimer_line = 0;  ///< 0 .. N-1 across the width
  int slice = 0;       ///< RGF slice index along transport
};

struct Bond {
  size_t a = 0;
  size_t b = 0;
  /// Hopping scale factor: 1.0 for bulk bonds, (1 + delta) for the
  /// edge dimer bonds (Son-Cohen-Louie edge relaxation).
  double scale = 1.0;
};

class Lattice {
 public:
  /// Build an A-GNR with index `n_index` spanning `num_slices` slices
  /// (channel length = num_slices * 1.5 * aCC, plus the trailing bond).
  /// `edge_delta` is the edge-bond relaxation factor delta.
  static Lattice armchair(int n_index, int num_slices, double edge_delta);

  /// Number of slices required to cover at least `length_nm` of channel.
  static int slices_for_length(double length_nm);

  /// Copy of this lattice with one atom removed (a lattice vacancy — the
  /// defect mechanism Sec. 4 of the paper defers to future work). Bonds to
  /// the vacancy disappear; slice membership and column positions are
  /// preserved, so the real-space transport path handles the defect
  /// directly. Throws if the index is invalid or the slice would empty.
  Lattice with_vacancy(size_t atom_index) const;

  /// Copy with edge roughness (Sec. 4 / ref. [17], Yoon & Guo): every atom
  /// on the outermost dimer lines is removed independently with the given
  /// probability. `seed` makes the disorder realization reproducible.
  /// Interior slices are never emptied (N >= 3 edge removal keeps them).
  Lattice with_edge_roughness(double removal_probability, unsigned seed) const;

  int n_index() const { return n_; }
  int num_slices() const { return num_slices_; }

  /// Physical ribbon width W = (N-1)*sqrt(3)/2*aCC [nm].
  double width_nm() const;

  /// Total extent along x [nm] (last atom minus first atom).
  double length_nm() const;

  const std::vector<Atom>& atoms() const { return atoms_; }
  const std::vector<Bond>& bonds() const { return bonds_; }

  /// Atom indices of each slice, ordered by (dimer_line, x).
  const std::vector<std::vector<size_t>>& slice_atoms() const { return slice_atoms_; }

  /// x coordinate of the geometric center of each atomic column; column c
  /// corresponds to mode-space chain site c (2 columns per slice).
  const std::vector<double>& column_x_nm() const { return column_x_; }

  /// y coordinate of dimer line j.
  double dimer_line_y_nm(int j) const;

 private:
  int n_ = 0;
  int num_slices_ = 0;
  std::vector<Atom> atoms_;
  std::vector<Bond> bonds_;
  std::vector<std::vector<size_t>> slice_atoms_;
  std::vector<double> column_x_;
};

}  // namespace gnrfet::gnr
