#include "model/intrinsic_fet.hpp"

namespace gnrfet::model {

FetTables make_fet_tables(const device::DeviceTable& table) {
  FetTables t;
  t.current_A = std::make_shared<Table2D>(table.vg, table.vd, table.current_A);
  t.charge_C = std::make_shared<Table2D>(table.vg, table.vd, table.charge_C);
  return t;
}

IntrinsicFet::IntrinsicFet(std::shared_ptr<const Table2D> current_A,
                           std::shared_ptr<const Table2D> charge_C, Polarity polarity,
                           double offset_V)
    : current_(std::move(current_A)),
      charge_(std::move(charge_C)),
      polarity_(polarity),
      offset_(offset_V) {}

FetSample IntrinsicFet::eval(const Table2D& t, double vgs, double vds,
                             bool antisymmetric_value) const {
  // Fold p-type through the particle-hole mirror of the ambipolar device.
  double sign_outer = 1.0, sign_args = 1.0;
  if (polarity_ == Polarity::kP) {
    sign_outer = -1.0;
    sign_args = -1.0;
    vgs = -vgs;
    vds = -vds;
  }
  FetSample s;
  if (vds >= 0.0) {
    const TableSample ts = t.sample(vgs + offset_, vds);
    s.value = ts.value;
    s.d_dvgs = ts.d_dx;
    s.d_dvds = ts.d_dy;
  } else {
    // Source/drain swap of the symmetric device.
    const TableSample ts = t.sample(vgs - vds + offset_, -vds);
    if (antisymmetric_value) {
      s.value = -ts.value;
      s.d_dvgs = -ts.d_dx;
      s.d_dvds = ts.d_dx + ts.d_dy;
    } else {
      s.value = ts.value;
      s.d_dvgs = ts.d_dx;
      s.d_dvds = -ts.d_dx - ts.d_dy;
    }
  }
  // Chain rule through the mirror: d/dvgs_ext = sign_args * d/dvgs_int, and
  // the odd quantities also flip sign.
  s.value *= sign_outer;
  s.d_dvgs *= sign_outer * sign_args;
  s.d_dvds *= sign_outer * sign_args;
  return s;
}

FetSample IntrinsicFet::current(double vgs, double vds) const {
  return eval(*current_, vgs, vds, /*antisymmetric_value=*/true);
}

FetSample IntrinsicFet::charge(double vgs, double vds) const {
  return eval(*charge_, vgs, vds, /*antisymmetric_value=*/false);
}

}  // namespace gnrfet::model
