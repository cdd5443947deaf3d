#pragma once

#include <cstddef>
#include <vector>

/// Smooth 2D lookup table (Catmull-Rom bicubic) for the circuit-level
/// device models. Smooth first derivatives are required by the circuit
/// simulator's Newton iterations and by the capacitance extraction
/// C = |dQ/dV| of Sec. 3.
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

  double value(double x, double y) const { return sample(x, y).value; }
  /// Value and gradient at (x, y). Returns all-NaN when x or y is not
  /// finite.
  TableSample sample(double x, double y) const;

  double x_min() const { return xs_.front(); }
  double x_max() const { return xs_.back(); }
  double y_min() const { return ys_.front(); }
  double y_max() const { return ys_.back(); }

 private:
  std::vector<double> xs_, ys_, v_;
  double dx_ = 0.0, dy_ = 0.0;
  double at(ptrdiff_t ix, ptrdiff_t iy) const;  // with linearly extended ghost points
};

}  // namespace gnrfet::model
