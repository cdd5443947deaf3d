#pragma once

#include <vector>

#include "model/intrinsic_fet.hpp"

/// The paper's extrinsic GNRFET channel is an array of 4 equidistant GNRs
/// at 10 nm pitch sharing one gate and 40 nm-wide contacts. Currents and
/// charges add across the array; the variability study (Secs. 4-5) mixes
/// nominal and affected GNRs in the same array (1-of-4 vs 4-of-4).
namespace gnrfet::model {

class ArrayFet final : public ChannelModel {
 public:
  /// All channels must share polarity and offset (one gate metal).
  explicit ArrayFet(std::vector<IntrinsicFet> channels);

  /// Array with `count - affected` copies of `nominal` and `affected`
  /// copies of `variant` (the paper's 1-of-4 / 4-of-4 scenarios).
  static ArrayFet with_variants(const IntrinsicFet& nominal, const IntrinsicFet& variant,
                                int count, int affected);

  FetSample current(double vgs, double vds) const override;
  FetSample charge(double vgs, double vds) const override;

 private:
  std::vector<IntrinsicFet> channels_;
};

}  // namespace gnrfet::model
