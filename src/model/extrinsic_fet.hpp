#pragma once

#include <memory>

#include "model/array_fet.hpp"

/// Extrinsic GNRFET = intrinsic 4-GNR array + the parasitics of Fig. 3(a):
/// contact resistances RS/RD (1-100 kOhm, nominal 10 kOhm) and junction
/// capacitances CGS,e = CGD,e = (0.01-0.1 aF/nm) x 40 nm contact width.
/// Substrate capacitances are negligible for a thick substrate.
namespace gnrfet::model {

struct Parasitics {
  double rs_ohm = 10e3;
  double rd_ohm = 10e3;
  double cgs_e_F = 1.0e-18;  ///< 0.025 aF/nm * 40 nm (the design kit uses 0.1 aF/nm)
  double cgd_e_F = 1.0e-18;

  /// Paper parametrization: capacitance per unit contact width.
  static Parasitics from_per_width(double c_aF_per_nm, double contact_width_nm,
                                   double rs_ohm = 10e3, double rd_ohm = 10e3);
};

/// Value object handed to the circuit netlist builders.
struct ExtrinsicFet {
  std::shared_ptr<const ChannelModel> intrinsic;
  Parasitics parasitics;
};

ExtrinsicFet make_extrinsic(ArrayFet array, const Parasitics& parasitics);

/// Wrap any channel model (e.g. the CMOS compact model).
ExtrinsicFet make_extrinsic(std::shared_ptr<const ChannelModel> channel,
                            const Parasitics& parasitics);

}  // namespace gnrfet::model
