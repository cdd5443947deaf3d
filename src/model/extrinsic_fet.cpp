#include "model/extrinsic_fet.hpp"

namespace gnrfet::model {

Parasitics Parasitics::from_per_width(double c_aF_per_nm, double contact_width_nm) {
  Parasitics p;
  p.cgs_e_F = c_aF_per_nm * 1e-18 * contact_width_nm;
  p.cgd_e_F = p.cgs_e_F;
  return p;
}

ExtrinsicFet make_extrinsic(ArrayFet array, const Parasitics& parasitics) {
  return {std::make_shared<ArrayFet>(std::move(array)), parasitics};
}

ExtrinsicFet make_extrinsic(std::shared_ptr<const ChannelModel> channel,
                            const Parasitics& parasitics) {
  return {std::move(channel), parasitics};
}

}  // namespace gnrfet::model
