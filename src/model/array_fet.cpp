#include "model/array_fet.hpp"

#include <stdexcept>

namespace gnrfet::model {

ArrayFet::ArrayFet(std::vector<IntrinsicFet> channels) : channels_(std::move(channels)) {
  if (channels_.empty()) throw std::invalid_argument("ArrayFet: need >= 1 channel");
  for (const auto& c : channels_) {
    if (c.polarity() != channels_.front().polarity()) {
      throw std::invalid_argument("ArrayFet: mixed polarities in one array");
    }
  }
}

ArrayFet ArrayFet::with_variants(const IntrinsicFet& nominal, const IntrinsicFet& variant,
                                 int count, int affected) {
  if (affected < 0 || affected > count) {
    throw std::invalid_argument("ArrayFet: affected count out of range");
  }
  std::vector<IntrinsicFet> channels;
  channels.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count - affected; ++i) channels.push_back(nominal);
  for (int i = 0; i < affected; ++i) channels.push_back(variant);
  return ArrayFet(std::move(channels));
}

namespace {
/// Adds the channels' samples in array order. A channel that is the same
/// model as the one before it reuses that sample instead of sampling the
/// tables again, so a nominal 4-GNR array costs one table lookup.
FetSample sum(const std::vector<IntrinsicFet>& channels, bool want_current, double vgs,
              double vds) {
  FetSample total, s;
  const IntrinsicFet* prev = nullptr;
  for (const auto& c : channels) {
    if (!prev || !c.same_model(*prev)) {
      s = want_current ? c.current(vgs, vds) : c.charge(vgs, vds);
    }
    prev = &c;
    total.value += s.value;
    total.d_dvgs += s.d_dvgs;
    total.d_dvds += s.d_dvds;
  }
  return total;
}
}  // namespace

FetSample ArrayFet::current(double vgs, double vds) const {
  return sum(channels_, true, vgs, vds);
}

FetSample ArrayFet::charge(double vgs, double vds) const {
  return sum(channels_, false, vgs, vds);
}

}  // namespace gnrfet::model
