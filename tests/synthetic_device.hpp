#pragma once

#include <cmath>
#include <memory>

#include "circuit/netlists.hpp"
#include "device/tablegen.hpp"
#include "model/array_fet.hpp"
#include "model/extrinsic_fet.hpp"
#include "model/intrinsic_fet.hpp"

/// Synthetic, analytically smooth ambipolar device table used by the model
/// and circuit tests: hermetic (no dependency on the NEGF table cache) and
/// fast, while reproducing the structural properties the models rely on —
/// ambipolarity with minimum near VG = VD/2, I = 0 at VD = 0, and the
/// source/drain swap symmetry of the physical device.
namespace gnrfet::synthetic {

inline double synthetic_current(double vg, double vd) {
  const auto branch = [](double x) {
    const double s = 0.06;
    const double v = s * std::log1p(std::exp(x / s));
    return v * v;
  };
  const double sat = std::tanh(vd / 0.12);
  // Electron branch rises with vg, hole branch with (vd - vg): symmetric
  // under vg -> vd - vg like the ambipolar SBFET.
  return 4e-5 * sat * (branch(vg - 0.3) + branch(vd - vg - 0.3) + 1e-4);
}

inline double synthetic_charge(double vg, double vd) {
  // Smooth channel charge, negative (electrons) at high vg.
  return -2e-18 * (vg - 0.5 * vd);
}

inline device::DeviceTable synthetic_table() {
  device::DeviceTable t;
  const size_t ng = 41, nd = 31;
  for (size_t i = 0; i < ng; ++i) t.vg.push_back(-0.25 + 1.25 * double(i) / (ng - 1));
  for (size_t i = 0; i < nd; ++i) t.vd.push_back(0.75 * double(i) / (nd - 1));
  t.band_gap_eV = 0.6;
  for (size_t ig = 0; ig < ng; ++ig) {
    for (size_t id = 0; id < nd; ++id) {
      t.current_A.push_back(synthetic_current(t.vg[ig], t.vd[id]));
      t.charge_C.push_back(synthetic_charge(t.vg[ig], t.vd[id]));
    }
  }
  return t;
}

inline model::IntrinsicFet synthetic_fet(model::Polarity pol, double offset = 0.0) {
  static const model::FetTables tables = model::make_fet_tables(synthetic_table());
  return model::IntrinsicFet(tables.current_A, tables.charge_C, pol, offset);
}

/// Inverter of two 4-GNR synthetic arrays with 40 nm-wide contacts.
inline circuit::InverterModels synthetic_inverter(double offset = 0.12) {
  const auto par = model::Parasitics::from_per_width(0.05, 40.0);
  circuit::InverterModels m;
  m.nfet = model::make_extrinsic(
      model::ArrayFet::uniform(synthetic_fet(model::Polarity::kN, offset), 4), par);
  m.pfet = model::make_extrinsic(
      model::ArrayFet::uniform(synthetic_fet(model::Polarity::kP, offset), 4), par);
  return m;
}

}  // namespace gnrfet::synthetic
