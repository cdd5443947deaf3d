#include "circuit/snm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/dc.hpp"

namespace gnrfet::circuit {

Vtc compute_vtc(const InverterModels& models, double vdd, int points) {
  Circuit ckt;
  const NodeId vdd_node = ckt.new_node();
  const NodeId in = ckt.new_node();
  const NodeId out = ckt.new_node();
  auto vdd_src = std::make_unique<VoltageSource>(vdd_node, kGround, vdd);
  const size_t vdd_branch = vdd_src->branch();
  ckt.add(std::move(vdd_src));
  auto in_src = std::make_unique<VoltageSource>(in, kGround, 0.0);
  auto* in_ptr = in_src.get();
  ckt.add(std::move(in_src));
  add_inverter(ckt, models, in, out, vdd_node);

  Vtc vtc;
  std::vector<double> x;
  for (int i = 0; i < points; ++i) {
    const double v = vdd * static_cast<double>(i) / static_cast<double>(points - 1);
    in_ptr->set_dc(v);
    const DcResult dc = solve_dc(ckt, x);
    if (!dc.converged) throw std::runtime_error("compute_vtc: DC did not converge");
    x = dc.x;
    vtc.vin.push_back(v);
    vtc.vout.push_back(ckt.voltage(x, out));
    vtc.supply_current_A.push_back(x[ckt.unknown_of_branch(vdd_branch)]);
  }
  return vtc;
}

namespace {

/// Linear interpolation of a tabulated monotone-x function.
double interp(const std::vector<double>& xs, const std::vector<double>& ys, double x) {
  if (x <= xs.front()) return ys.front();
  if (x >= xs.back()) return ys.back();
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const size_t i = static_cast<size_t>(it - xs.begin());
  const double t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
  return ys[i - 1] + t * (ys[i] - ys[i - 1]);
}

}  // namespace

double butterfly_lobe(const Vtc& a, const Vtc& b) {
  // Upper-left lobe in the (V1, V2) plane: upper boundary yA(x) = fA(x),
  // lower boundary yB(x) = fB^{-1}(x). A square of side s with lower-left
  // corner at x fits iff yA(x + s) - yB(x) >= s (both curves decreasing).
  const Vtc binv = invert_vtc(b);
  const double v_max = a.vin.back();
  const int nx = 241;
  double best = 0.0;
  for (int i = 0; i < nx; ++i) {
    const double x = v_max * static_cast<double>(i) / (nx - 1);
    const double yb = interp(binv.vin, binv.vout, x);
    // Binary search the largest feasible side at this x.
    double lo = 0.0, hi = v_max - x;
    for (int it = 0; it < 40 && hi - lo > 1e-7; ++it) {
      const double s = 0.5 * (lo + hi);
      const double ya = interp(a.vin, a.vout, x + s);
      if (ya - yb >= s) {
        lo = s;
      } else {
        hi = s;
      }
    }
    best = std::max(best, lo);
  }
  return best;
}

Vtc invert_vtc(const Vtc& v) {
  // Swap the axes of the (monotone-decreasing) curve and re-sort ascending.
  Vtc out;
  out.vin.assign(v.vout.rbegin(), v.vout.rend());
  out.vout.assign(v.vin.rbegin(), v.vin.rend());
  for (size_t i = 1; i < out.vin.size(); ++i) {
    out.vin[i] = std::max(out.vin[i], out.vin[i - 1] + 1e-12);
  }
  return out;
}

double butterfly_snm(const Vtc& a, const Vtc& b) {
  // Upper-left lobe: bounded above by fA, below by fB^-1. Lower-right
  // lobe: the mirror image through the diagonal, i.e. the upper-left lobe
  // of the inverted curves with roles swapped.
  const double lobe_ul = butterfly_lobe(a, b);
  const double lobe_lr = butterfly_lobe(invert_vtc(b), invert_vtc(a));
  return std::min(lobe_ul, lobe_lr);
}

double inverter_static_power(const InverterModels& models, double vdd) {
  const Vtc vtc = compute_vtc(models, vdd, 5);
  // States: input at ground and at VDD; P = -vdd * i_branch.
  const double p0 = -vdd * vtc.supply_current_A.front();
  const double p1 = -vdd * vtc.supply_current_A.back();
  return 0.5 * (p0 + p1);
}

}  // namespace gnrfet::circuit
