#pragma once

#include <memory>

#include "model/channel.hpp"

/// Scaled-CMOS baseline for Table 1.
///
/// The paper simulates 22/32/45 nm CMOS ring oscillators with PTM BSIM
/// cards in HSPICE. We substitute a smooth velocity-saturated alpha-power
/// compact model (subthreshold softplus blend, DIBL, channel-length
/// modulation, constant gate capacitance) calibrated per node to PTM-era
/// behaviour — the comparison needs node-level FO4 delay / EDP / SNM
/// trends, not BSIM-card fidelity (see DESIGN.md, substitutions).
namespace gnrfet::cmos {

/// What the node decks vary. The velocity-saturation exponent, subthreshold
/// ideality, DIBL, channel-length modulation and Vdsat per overdrive are
/// the same at every node: constants of the model (compact_model.cpp).
struct CmosParams {
  model::Polarity polarity = model::Polarity::kN;
  double width_um = 1.0;
  double vth_V = 0.3;            ///< zero-bias threshold
  double k_A_per_um = 1.0e-3;    ///< drive strength at 1 V overdrive
  double cgate_fF_per_um = 1.2;  ///< total intrinsic gate capacitance
  double ioff_A_per_um = 0.0;    ///< additional junction/GIDL leakage floor
};

/// Smooth MOSFET model implementing the shared ChannelModel interface.
/// p-type devices evaluate the n-equations at mirrored biases; negative
/// vds uses the source/drain-swap antisymmetry.
class CmosFet final : public model::ChannelModel {
 public:
  explicit CmosFet(const CmosParams& params);
  model::FetSample current(double vgs, double vds) const override;
  model::FetSample charge(double vgs, double vds) const override;

 private:
  model::FetSample current_fwd(double vgs, double vds) const;  ///< vds >= 0, n-type frame
  CmosParams params_;
};

std::shared_ptr<const CmosFet> make_cmos_fet(const CmosParams& params);

}  // namespace gnrfet::cmos
