#include "support/model_oracles.hpp"

namespace gnrfet::model {

double extended_oracle(const std::vector<double>& values, ptrdiff_t nx, ptrdiff_t ny,
                       ptrdiff_t ix, ptrdiff_t iy) {
  const auto at = [&](ptrdiff_t x, ptrdiff_t y) { return extended_oracle(values, nx, ny, x, y); };
  if (ix < 0) return 2.0 * at(0, iy) - at(-ix, iy);
  if (ix >= nx) return 2.0 * at(nx - 1, iy) - at(2 * (nx - 1) - ix, iy);
  if (iy < 0) return 2.0 * at(ix, 0) - at(ix, -iy);
  if (iy >= ny) return 2.0 * at(ix, ny - 1) - at(ix, 2 * (ny - 1) - iy);
  return values[static_cast<size_t>(ix * ny + iy)];
}

}  // namespace gnrfet::model
