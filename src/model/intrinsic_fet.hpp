#pragma once

#include <memory>

#include "device/tablegen.hpp"
#include "model/channel.hpp"
#include "model/table2d.hpp"

/// Circuit-level model of one intrinsic GNR channel, built on the
/// I_D(V_G, V_D) / Q(V_G, V_D) lookup tables of Sec. 3.
///
/// - The gate work-function offset `offset_V` shifts the ambipolar I-V
///   along the V_G axis (Fig. 2(b)); it is the paper's VT-tuning knob.
/// - p-type devices use the particle-hole mirror of the same ambipolar
///   table: I_p(vgs, vds) = -I_n(-vgs, -vds) (Sec. 2, demonstrated for
///   CNTs in ref. [15]).
/// - Negative drain bias is mapped through the source/drain swap symmetry
///   of the geometrically symmetric device:
///   I(vgs, -v) = -I(vgs - v, v), Q(vgs, -v) = Q(vgs - v, v).
namespace gnrfet::model {

class IntrinsicFet {
 public:
  /// `offset_V` shifts the underlying table gate axis: the device is
  /// evaluated at V_G = vgs + offset.
  IntrinsicFet(std::shared_ptr<const Table2D> current_A,
               std::shared_ptr<const Table2D> charge_C, Polarity polarity, double offset_V);

  /// Drain current [A] with partial derivatives (drain -> source positive).
  FetSample current(double vgs, double vds) const;

  /// Channel charge [C] with partial derivatives; the intrinsic gate
  /// capacitances of Sec. 3 are CGD_i = |dQ/dVDS| and
  /// CGS_i = |dQ/dVGS| - |dQ/dVDS|.
  FetSample charge(double vgs, double vds) const;

  Polarity polarity() const { return polarity_; }

  /// True when `o` is the same model: the same two tables, polarity and
  /// offset, so its samples are bit-identical to this channel's.
  bool same_model(const IntrinsicFet& o) const {
    return current_ == o.current_ && charge_ == o.charge_ && polarity_ == o.polarity_ &&
           offset_ == o.offset_;
  }

 private:
  FetSample eval(const Table2D& t, double vgs, double vds, bool antisymmetric_value) const;

  std::shared_ptr<const Table2D> current_;
  std::shared_ptr<const Table2D> charge_;
  Polarity polarity_;
  double offset_;
};

/// Shared-table helper: build (current, charge) Table2D pair once per
/// generated device table so the 4-GNR arrays can share them.
struct FetTables {
  std::shared_ptr<const Table2D> current_A;
  std::shared_ptr<const Table2D> charge_C;
};

FetTables make_fet_tables(const device::DeviceTable& table);

}  // namespace gnrfet::model
