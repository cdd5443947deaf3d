#include "model/table2d.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"

namespace gnrfet::model {

namespace {

/// Catmull-Rom cubic through p0..p3 at parameter t in [0,1] between p1,p2,
/// plus its derivative with respect to t.
struct Cubic {
  double value;
  double deriv;
};

Cubic catmull_rom(double p0, double p1, double p2, double p3, double t) {
  const double a = -0.5 * p0 + 1.5 * p1 - 1.5 * p2 + 0.5 * p3;
  const double b = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3;
  const double c = -0.5 * p0 + 0.5 * p2;
  const double d = p1;
  return {((a * t + b) * t + c) * t + d, (3.0 * a * t + 2.0 * b) * t + c};
}

void check_axis(const std::vector<double>& axis, const char* name) {
  if (axis.size() < 2) throw std::invalid_argument(std::string("Table2D: axis too short: ") + name);
  const double h = axis[1] - axis[0];
  if (h <= 0.0) throw std::invalid_argument(std::string("Table2D: axis not ascending: ") + name);
  for (size_t i = 1; i < axis.size(); ++i) {
    if (std::abs((axis[i] - axis[i - 1]) - h) > 1e-9 * std::max(1.0, std::abs(h))) {
      throw std::invalid_argument(std::string("Table2D: axis not uniform: ") + name);
    }
  }
}

}  // namespace

Table2D::Table2D(std::vector<double> xs, std::vector<double> ys, std::vector<double> values)
    : xs_(std::move(xs)), ys_(std::move(ys)), v_(std::move(values)) {
  check_axis(xs_, "x");
  check_axis(ys_, "y");
  if (v_.size() != xs_.size() * ys_.size()) {
    throw std::invalid_argument("Table2D: value count mismatch");
  }
  GNRFET_REQUIRE("model", "finite-table", contracts::all_finite(v_),
                 "interpolation table contains NaN/inf values");
  dx_ = xs_[1] - xs_[0];
  dy_ = ys_[1] - ys_[0];
}

double Table2D::at(ptrdiff_t ix, ptrdiff_t iy) const {
  // Linearly extended ghost points preserve the boundary slope of the
  // Catmull-Rom patches (clamped ghosts would halve the edge gradient,
  // distorting the FET-table extrapolation region).
  const ptrdiff_t nx = static_cast<ptrdiff_t>(xs_.size());
  const ptrdiff_t ny = static_cast<ptrdiff_t>(ys_.size());
  // v(-1) = 2 v(0) - v(1) and v(n) = 2 v(n-1) - v(n-2), per axis.
  if (ix < 0) return 2.0 * at(0, iy) - at(-ix, iy);
  if (ix >= nx) return 2.0 * at(nx - 1, iy) - at(2 * (nx - 1) - ix, iy);
  if (iy < 0) return 2.0 * at(ix, 0) - at(ix, -iy);
  if (iy >= ny) return 2.0 * at(ix, ny - 1) - at(ix, 2 * (ny - 1) - iy);
  return v_[static_cast<size_t>(ix) * ys_.size() + static_cast<size_t>(iy)];
}

TableSample Table2D::sample(double x, double y) const {
  // A non-finite coordinate has no cell: casting it to an index is
  // undefined. The NaN sample lets the caller's finite checks catch it.
  if (!std::isfinite(x) || !std::isfinite(y)) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan, nan};
  }
  // Clamp to the domain; outside it the value continues linearly with the
  // boundary gradient (computed by sampling at the clamped point).
  const double xc = std::clamp(x, xs_.front(), xs_.back());
  const double yc = std::clamp(y, ys_.front(), ys_.back());

  const double gx = (xc - xs_.front()) / dx_;
  const double gy = (yc - ys_.front()) / dy_;
  ptrdiff_t ix = std::min<ptrdiff_t>(static_cast<ptrdiff_t>(gx),
                                     static_cast<ptrdiff_t>(xs_.size()) - 2);
  ptrdiff_t iy = std::min<ptrdiff_t>(static_cast<ptrdiff_t>(gy),
                                     static_cast<ptrdiff_t>(ys_.size()) - 2);
  const double tx = gx - static_cast<double>(ix);
  const double ty = gy - static_cast<double>(iy);

  // Interpolate along y for the 4 x-rows, tracking d/dy.
  double row_v[4], row_dy[4];
  for (int r = 0; r < 4; ++r) {
    const ptrdiff_t rx = ix - 1 + r;
    const Cubic c = catmull_rom(at(rx, iy - 1), at(rx, iy), at(rx, iy + 1), at(rx, iy + 2), ty);
    row_v[r] = c.value;
    row_dy[r] = c.deriv / dy_;
  }
  const Cubic cx = catmull_rom(row_v[0], row_v[1], row_v[2], row_v[3], tx);
  const Cubic cdy = catmull_rom(row_dy[0], row_dy[1], row_dy[2], row_dy[3], tx);

  TableSample s;
  s.value = cx.value;
  s.d_dx = cx.deriv / dx_;
  s.d_dy = cdy.value;

  // Linear extension outside the domain.
  if (x != xc) s.value += s.d_dx * (x - xc);
  if (y != yc) s.value += s.d_dy * (y - yc);
  return s;
}

}  // namespace gnrfet::model
