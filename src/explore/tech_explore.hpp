#pragma once

#include <map>
#include <vector>

#include "circuit/measure.hpp"
#include "common/annotations.hpp"
#include "device/tablegen.hpp"
#include "model/intrinsic_fet.hpp"

/// Technology exploration of Sec. 3.1: build GNRFET inverter models at any
/// (VT, VDD) design point from the cached intrinsic-device tables, sweep
/// the design plane, and locate the paper's operating points A/B/C.
namespace gnrfet::explore {

/// Device variant identity within the kit: GNR index and oxide charge.
struct VariantSpec {
  int n_index = 12;
  double impurity_q = 0.0;
  bool operator==(const VariantSpec&) const = default;
  bool operator<(const VariantSpec& o) const {
    return n_index != o.n_index ? n_index < o.n_index : impurity_q < o.impurity_q;
  }
};

/// Operating point B of Sec. 3.1, where the variability studies (Tables
/// 2-4, Figs. 6-7) measure.
inline constexpr double kPointB_VT = 0.13;
inline constexpr double kPointB_VDD = 0.4;

/// The bias-grid settings shared by the table cache; tools/gen_tables and
/// all benches must agree on these for cache hits.
device::TableGenOptions standard_table_options();

/// Loads (generating on miss) device tables and builds circuit models.
///
/// The kit is the one in-memory table store: table() resolves each variant
/// once through device::generate_device_table, which owns the on-disk
/// cache (load on hit, generate and save on miss).
///
/// Thread safety: all public methods may be called concurrently (the
/// parallel Monte Carlo and plane sweeps do); the per-kit maps are guarded
/// by a mutex. Table resolution runs under that lock, so concurrent first
/// uses of a variant resolve it exactly once.
class DesignKit {
 public:
  /// Cached table lookup; generates (minutes) on first use of a variant.
  const device::DeviceTable& table(const VariantSpec& v);

  /// Resolve every variant the kit does not hold yet before fanning a study
  /// out: cold ones generate once each, in the given order.
  void warm(const std::vector<VariantSpec>& variants);

  /// Inject a pre-built table for a variant (tests and synthetic studies:
  /// lets the circuit layers run without the NEGF pipeline). Setup-only:
  /// must happen before the variant's first use — overwriting an existing
  /// entry would invalidate references handed out by table(), so it throws
  /// std::logic_error instead.
  // Test seam: circuit-level tests run the kit on synthetic tables.
  void set_table(const VariantSpec& v, device::DeviceTable table);

  /// Threshold voltage of the nominal (N=12, ideal) device at VD = 0.05 V
  /// (a VD column within 1e-9 V of it, else std::invalid_argument) with
  /// zero work-function offset; VT tuning uses offset = vt0 - VT_target.
  double vt0();

  /// Nominal inverter (all four GNRs N=12 ideal in both devices) at a
  /// target threshold voltage.
  circuit::InverterModels inverter(double vt_target);

  /// Inverter whose n/p arrays carry `affected` (1..4) variant GNRs
  /// (Secs. 4-5). The p-FET variant's impurity sign is folded through the
  /// particle-hole mirror internally: pass the physical p-device impurity.
  circuit::InverterModels inverter_with_variants(const VariantSpec& n_variant,
                                                 const VariantSpec& p_variant, int affected,
                                                 double vt_target);

 private:
  model::IntrinsicFet channel(const VariantSpec& v, model::Polarity pol, double offset);

  /// Every kit FET's parasitics: RS = RD = 10 kOhm and CGS,e = CGD,e =
  /// 0.1 aF/nm x 40 nm contact width = 4 aF.
  const model::Parasitics parasitics_ = model::Parasitics::from_per_width(0.1, 40.0);
  /// Guards every cache below. Map entries are stable under insertion and
  /// never reassigned, so references table() hands out stay valid for the
  /// kit's lifetime.
  common::Mutex mu_;
  std::map<VariantSpec, device::DeviceTable> tables_ GNRFET_GUARDED_BY(mu_);
  std::map<VariantSpec, model::FetTables> fet_tables_ GNRFET_GUARDED_BY(mu_);
  double vt0_ GNRFET_GUARDED_BY(mu_) = -1.0;
};

/// One point of the (VT, VDD) exploration plane (Fig. 3(b)).
struct ExplorePoint {
  double vt = 0.0;
  double vdd = 0.0;
  double frequency_Hz = 0.0;
  double edp_Js = 0.0;
  double snm_V = 0.0;
  double static_power_W = 0.0;
  double dynamic_power_W = 0.0;
  bool ok = false;
};

struct ExploreOptions {
  circuit::RingMeasureOptions ring;  ///< each point runs at its own vdd
};

/// Sweep the plane: a 15-stage FO4 ring oscillator + inverter SNM at every
/// (vt, vdd) combination.
std::vector<ExplorePoint> explore_plane(DesignKit& kit, const std::vector<double>& vt_values,
                                        const std::vector<double>& vdd_values,
                                        const ExploreOptions& opts = {});

/// The paper's operating points: A = min EDP at >= 3 GHz; B = min EDP at
/// >= 3 GHz and SNM >= 0.15 V; C = same EDP/SNM class as B at higher VT
/// (lower frequency).
struct OperatingPoints {
  ExplorePoint a, b, c;
};

OperatingPoints find_operating_points(const std::vector<ExplorePoint>& grid,
                                      double freq_target_Hz = 3e9, double snm_target_V = 0.15);

}  // namespace gnrfet::explore
