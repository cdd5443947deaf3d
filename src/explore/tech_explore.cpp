#include "explore/tech_explore.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/netlists.hpp"
#include "circuit/snm.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "device/sweeps.hpp"

namespace gnrfet::explore {

namespace {

/// Variant identity -> device spec (the kit's one spec convention: a
/// nonzero oxide charge becomes a single impurity at mid-channel).
device::DeviceSpec spec_for(const VariantSpec& v) {
  device::DeviceSpec spec;
  spec.n_index = v.n_index;
  if (v.impurity_q != 0.0) spec.impurities.push_back({v.impurity_q, 1.0, 0.0, 0.4});
  return spec;
}

}  // namespace

device::TableGenOptions standard_table_options() {
  device::TableGenOptions opts;
  opts.vg_min = 0.0;
  opts.vg_max = 1.0;
  opts.vg_points = 21;  // 0.05 V steps; headroom for work-function offsets
  opts.vd_min = 0.0;
  opts.vd_max = 0.75;
  opts.vd_points = 16;
  return opts;
}

DesignKit::Entry& DesignKit::entry(const VariantSpec& v) {
  auto it = entries_.find(v);
  if (it == entries_.end()) {
    // Resolve under the kit lock: one disk load or generation per variant
    // per kit. It cannot deadlock: generation never calls back into the
    // kit, and its parallel_for runs on the pool from a top-level caller
    // and inline from inside a region.
    trace::Span span("explore", "design_kit_table");
    Entry e{device::generate_device_table(spec_for(v), standard_table_options()), {}};
    it = entries_.emplace(v, std::move(e)).first;
  }
  return it->second;
}

const device::DeviceTable& DesignKit::table(const VariantSpec& v) {
  common::MutexLock lk(mu_);
  return entry(v).table;
}

void DesignKit::warm(const std::vector<VariantSpec>& variants) {
  trace::Span span("explore", "design_kit_warm");
  common::MutexLock lk(mu_);
  for (const auto& v : variants) entry(v);
}

void DesignKit::set_table(const VariantSpec& v, device::DeviceTable table) {
  common::MutexLock lk(mu_);
  // Refuse to replace an existing entry: table() hands out references whose
  // validity rests on map entries never being reassigned.
  if (!entries_.emplace(v, Entry{std::move(table), {}}).second) {
    throw std::logic_error(
        "DesignKit::set_table: variant already has a table; inject tables "
        "before the variant's first use");
  }
}

double DesignKit::nominal_vt0() {
  if (vt0_ >= 0.0) return vt0_;
  const device::DeviceTable& t = entry({12, 0.0}).table;
  // Extract at VD = 0.05 V, per the max-gm method of Fig. 2(b).
  const auto col = std::ranges::find_if(t.vd, [](double v) { return std::abs(v - 0.05) <= 1e-9; });
  if (col == t.vd.end()) throw std::invalid_argument("DesignKit::vt0: no 0.05 V on the VD axis");
  const size_t ivd = static_cast<size_t>(col - t.vd.begin());
  std::vector<double> id(t.vg.size());
  for (size_t ig = 0; ig < t.vg.size(); ++ig) id[ig] = t.at_current(ig, ivd);
  vt0_ = device::extract_threshold_voltage(t.vg, id);
  return vt0_;
}

double DesignKit::vt0() {
  common::MutexLock lk(mu_);
  return nominal_vt0();
}

model::IntrinsicFet DesignKit::channel(const VariantSpec& v, model::Polarity pol,
                                       double offset) {
  Entry& e = entry(v);
  if (!e.fet.current_A) e.fet = model::make_fet_tables(e.table);
  return model::IntrinsicFet(e.fet.current_A, e.fet.charge_C, pol, offset);
}

circuit::InverterModels DesignKit::inverter(double vt_target) {
  return inverter_with_variants({12, 0.0}, {12, 0.0}, 0, vt_target);
}

circuit::InverterModels DesignKit::inverter_with_variants(const VariantSpec& n_variant,
                                                          const VariantSpec& p_variant,
                                                          int affected, double vt_target) {
  common::MutexLock lk(mu_);
  const double offset = nominal_vt0() - vt_target;
  const VariantSpec nominal{12, 0.0};
  // The p-FET is the particle-hole mirror of an n-device: a physical
  // impurity q in the p-device maps to -q in the mirrored table.
  const VariantSpec p_mirrored{p_variant.n_index, -p_variant.impurity_q};

  circuit::InverterModels m;
  m.nfet = model::make_extrinsic(
      model::ArrayFet::with_variants(channel(nominal, model::Polarity::kN, offset),
                                     channel(n_variant, model::Polarity::kN, offset), 4,
                                     affected),
      parasitics_);
  m.pfet = model::make_extrinsic(
      model::ArrayFet::with_variants(channel(nominal, model::Polarity::kP, offset),
                                     channel(p_mirrored, model::Polarity::kP, offset), 4,
                                     affected),
      parasitics_);
  return m;
}

std::vector<ExplorePoint> explore_plane(DesignKit& kit, const std::vector<double>& vt_values,
                                        const std::vector<double>& vdd_values,
                                        const ExploreOptions& opts) {
  trace::Span span("explore", "explore_plane");
  // Resolve the shared nominal table and vt0 before fanning out, so no
  // point waits under the kit lock on a table generation.
  kit.vt0();
  const size_t nvt = vt_values.size();
  std::vector<ExplorePoint> grid(nvt * vdd_values.size());
  // Every (vt, vdd) point is an independent ring-oscillator + SNM
  // evaluation writing its own slot; layout matches the serial vdd-major
  // walk, so the result is identical for any thread count.
  par::parallel_for(grid.size(), [&](size_t k) {
    trace::Span point_span("explore", "explore_point");
    const double vdd = vdd_values[k / nvt];
    const double vt = vt_values[k % nvt];
    ExplorePoint p;
    p.vt = vt;
    p.vdd = vdd;
    const circuit::InverterModels inv = kit.inverter(vt);
    const std::vector<circuit::InverterModels> stages(circuit::kRingStages, inv);
    const circuit::RingMetrics rm = circuit::measure_ring_oscillator(stages, inv, vdd, opts.ring);
    if (rm.ok && rm.frequency_Hz > 0.0) {
      p.frequency_Hz = rm.frequency_Hz;
      p.edp_Js = rm.edp_Js;
      p.static_power_W = rm.static_power_W;
      p.dynamic_power_W = rm.dynamic_power_W;
      const circuit::Vtc vtc = circuit::compute_vtc(inv, vdd);
      p.snm_V = circuit::butterfly_snm(vtc, vtc);
      p.ok = true;
    }
    grid[k] = p;
  });
  return grid;
}

OperatingPoints find_operating_points(const std::vector<ExplorePoint>& grid,
                                      double freq_target_Hz, double snm_target_V) {
  OperatingPoints pts;
  double best_a = 1e300, best_b = 1e300;
  for (const auto& p : grid) {
    if (!p.ok) continue;
    if (p.frequency_Hz >= freq_target_Hz && p.edp_Js < best_a) {
      best_a = p.edp_Js;
      pts.a = p;
    }
    if (p.frequency_Hz >= freq_target_Hz && p.snm_V >= snm_target_V && p.edp_Js < best_b) {
      best_b = p.edp_Js;
      pts.b = p;
    }
  }
  // C: same EDP/SNM class as B at strictly higher VT; among candidates
  // pick the highest VT (the paper's C trades 40% frequency for nothing,
  // illustrating that raising VT does not buy robustness in GNRFETs).
  pts.c = pts.b;
  for (const auto& p : grid) {
    if (!p.ok || p.vt <= pts.b.vt) continue;
    if (p.snm_V >= 0.9 * pts.b.snm_V && p.edp_Js <= 1.6 * pts.b.edp_Js &&
        p.frequency_Hz < pts.b.frequency_Hz && p.vt > pts.c.vt) {
      pts.c = p;
    }
  }
  return pts;
}

}  // namespace gnrfet::explore
