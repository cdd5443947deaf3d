#pragma once

/// Abstract channel model consumed by the circuit simulator's FET element.
/// Implementations: the table-based GNR ArrayFet (model/array_fet.hpp) and
/// the calibrated CMOS compact model (cmos/compact_model.hpp), so GNRFET
/// and scaled-CMOS circuits run through the identical simulator (Table 1).
namespace gnrfet::model {

enum class Polarity { kN, kP };

struct FetSample {
  double value = 0.0;
  double d_dvgs = 0.0;
  double d_dvds = 0.0;
};

class ChannelModel {
 public:
  virtual ~ChannelModel() = default;
  /// Drain-source current [A] (positive drain->source), with partials.
  virtual FetSample current(double vgs, double vds) const = 0;
  /// Gate/channel charge [C], with partials (capacitance extraction).
  virtual FetSample charge(double vgs, double vds) const = 0;
};

}  // namespace gnrfet::model
