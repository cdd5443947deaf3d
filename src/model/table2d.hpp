#pragma once

#include <cstddef>
#include <vector>

/// Smooth 2D lookup table (Catmull-Rom bicubic) for the circuit-level
/// device models. Smooth first derivatives are required by the circuit
/// simulator's Newton iterations and by the capacitance extraction
/// C = |dQ/dV| of Sec. 3.
///
/// The values are stored with a one-point ghost ring on every side,
/// filled once at construction by linear extension, so sample() reads its
/// 4x4 stencil straight from the padded array.
namespace gnrfet::model {

struct TableSample {
  double value = 0.0;
  double d_dx = 0.0;
  double d_dy = 0.0;
};

class Table2D {
 public:
  /// `values` is row-major over (x, y): values[ix * ys.size() + iy].
  /// Axes must be strictly ascending and uniformly spaced.
  Table2D(std::vector<double> xs, std::vector<double> ys, std::vector<double> values);

  /// Value and gradient at (x, y). Returns all-NaN when x or y is not
  /// finite.
  TableSample sample(double x, double y) const;

  /// Stored grid value at ix in [-1, nx], iy in [-1, ny]: a table value
  /// inside, a ghost point on the ring.
  // Test seam: pins the padded ring against the extended_oracle; the ring is private.
  double grid(ptrdiff_t ix, ptrdiff_t iy) const;

 private:
  std::vector<double> xs_, ys_;
  std::vector<double> padded_;  ///< (nx + 2) x (ny + 2), row-major, ghost ring included
  size_t stride_ = 0;           ///< ny + 2
  double dx_ = 0.0, dy_ = 0.0;
};

}  // namespace gnrfet::model
