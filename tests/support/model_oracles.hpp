#pragma once

#include <cstddef>
#include <vector>

/// Test oracle of the model layer: the ghost ring that model::Table2D pads
/// its values with, by the recursive definition.
namespace gnrfet::model {

/// Value at (ix, iy) of the row-major nx x ny table `values`
/// (values[ix * ny + iy]), extended outside it by the recursive linear
/// extension v(-1) = 2 v(0) - v(1) and v(n) = 2 v(n-1) - v(n-2), x before
/// y.
double extended_oracle(const std::vector<double>& values, ptrdiff_t nx, ptrdiff_t ny,
                       ptrdiff_t ix, ptrdiff_t iy);

}  // namespace gnrfet::model
