#include "cmos/compact_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"
#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace gnrfet::cmos {

namespace {
constexpr double kVt = constants::kRoomTemperatureKT_eV;  // thermal voltage [V]
constexpr double kAlpha = 1.3;              // velocity-saturation exponent
constexpr double kSubthresholdN = 1.5;      // softplus ideality (sets SS with alpha)
constexpr double kDibl_V_per_V = 0.08;
constexpr double kLambda_per_V = 0.12;      // channel-length modulation
constexpr double kVdsatPerOverdrive = 0.8;

double softplus(double x) {
  if (x > 30.0) return x;
  if (x < -30.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

double raw_current(const CmosParams& p, double vgs, double vds) {
  const double vth_eff = p.vth_V - kDibl_V_per_V * vds;
  const double veff = kSubthresholdN * kVt * softplus((vgs - vth_eff) / (kSubthresholdN * kVt));
  const double vdsat = kVdsatPerOverdrive * veff + 1e-9;
  const double sat = std::tanh(vds / vdsat);
  const double drive = p.k_A_per_um * p.width_um * std::pow(veff, kAlpha);
  const double leak = p.ioff_A_per_um * p.width_um * (1.0 - std::exp(-vds / kVt));
  return drive * sat * (1.0 + kLambda_per_V * vds) + leak;
}
}  // namespace

CmosFet::CmosFet(const CmosParams& params) : params_(params) {
  GNRFET_REQUIRE("cmos", "physical-parameters",
                 params.width_um > 0.0 && std::isfinite(params.width_um) &&
                     params.k_A_per_um >= 0.0 && std::isfinite(params.vth_V),
                 strings::format("width_um = %g, k_A_per_um = %g, vth_V = %g", params.width_um,
                                 params.k_A_per_um, params.vth_V));
}

model::FetSample CmosFet::current_fwd(double vgs, double vds) const {
  // Central differences: the model is smooth and cheap, and numerical
  // partials keep the equations in one place.
  const double h = 1e-6;
  model::FetSample s;
  s.value = raw_current(params_, vgs, vds);
  s.d_dvgs = (raw_current(params_, vgs + h, vds) - raw_current(params_, vgs - h, vds)) / (2 * h);
  s.d_dvds = (raw_current(params_, vgs, vds + h) - raw_current(params_, vgs, vds - h)) / (2 * h);
  return s;
}

model::FetSample CmosFet::current(double vgs, double vds) const {
  double sign = 1.0;
  if (params_.polarity == model::Polarity::kP) {
    vgs = -vgs;
    vds = -vds;
    sign = -1.0;
  }
  model::FetSample s;
  if (vds >= 0.0) {
    s = current_fwd(vgs, vds);
  } else {
    const model::FetSample f = current_fwd(vgs - vds, -vds);
    s.value = -f.value;
    s.d_dvgs = -f.d_dvgs;
    s.d_dvds = f.d_dvgs + f.d_dvds;
  }
  s.value *= sign;
  // Mirror chain rule: both derivative arguments flip with the bias signs,
  // so the sign cancels for P devices.
  return s;
}

model::FetSample CmosFet::charge(double vgs, double vds) const {
  (void)vds;
  // Constant gate capacitance; overlap/junction parts live in the circuit
  // element's extrinsic capacitances.
  model::FetSample s;
  const double c = params_.cgate_fF_per_um * 1e-15 * params_.width_um;
  s.value = c * vgs;
  s.d_dvgs = c;
  s.d_dvds = 0.0;
  return s;
}

std::shared_ptr<const CmosFet> make_cmos_fet(const CmosParams& params) {
  return std::make_shared<CmosFet>(params);
}

}  // namespace gnrfet::cmos
