#include "explore/tech_explore.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

const device::DeviceTable& DesignKit::table(const VariantSpec& v) {
  common::MutexLock lk(mu_);
  auto it = tables_.find(v);
  if (it == tables_.end()) {
    // Resolve under the kit lock: one disk load or generation per variant
    // per kit. It cannot deadlock: generation never calls back into the
    // kit, and its parallel_for runs on the pool from a top-level caller
    // and inline from inside a region.
    trace::Span span("explore", "design_kit_table");
    it = tables_.emplace(v, device::generate_device_table(spec_for(v), standard_table_options()))
             .first;
  }
  return it->second;
}

void DesignKit::warm(const std::vector<VariantSpec>& variants) {
  trace::Span span("explore", "design_kit_warm");
  for (const auto& v : variants) table(v);
}

void DesignKit::set_table(const VariantSpec& v, device::DeviceTable table) {
  common::MutexLock lk(mu_);
  // Refuse to replace an existing entry: table() hands out references whose
  // validity rests on map entries never being reassigned.
  if (!tables_.emplace(v, std::move(table)).second) {
    throw std::logic_error(
        "DesignKit::set_table: variant already has a table; inject tables "
        "before the variant's first use");
  }
}

double DesignKit::vt0() {
  {
    common::MutexLock lk(mu_);
    if (vt0_ >= 0.0) return vt0_;
  }
  // May generate: table() takes mu_ itself. A racing extraction computes
  // the identical value (same table bits), so last write wins harmlessly.
  const device::DeviceTable& t = table({12, 0.0});
  // Extract at VD = 0.05 V, per the max-gm method of Fig. 2(b).
  const auto col = std::ranges::find_if(t.vd, [](double v) { return std::abs(v - 0.05) <= 1e-9; });
  if (col == t.vd.end()) throw std::invalid_argument("DesignKit::vt0: no 0.05 V on the VD axis");
  const size_t ivd = static_cast<size_t>(col - t.vd.begin());
  std::vector<double> id(t.vg.size());
  for (size_t ig = 0; ig < t.vg.size(); ++ig) id[ig] = t.at_current(ig, ivd);
  const double vt0 = device::extract_threshold_voltage(t.vg, id);
  common::MutexLock lk(mu_);
  vt0_ = vt0;
  return vt0_;
}

model::IntrinsicFet DesignKit::channel(const VariantSpec& v, model::Polarity pol,
                                       double offset) {
  {
    common::MutexLock lk(mu_);
    const auto it = fet_tables_.find(v);
    if (it != fet_tables_.end()) {
      return model::IntrinsicFet(it->second.current_A, it->second.charge_C, pol, offset);
    }
  }
  // Build the interpolation tables outside the lock (table() may generate).
  // Racing builders produce bit-identical FetTables; the first emplace
  // wins and everyone returns references into that entry.
  const device::DeviceTable& t = table(v);
  model::FetTables ft = model::make_fet_tables(t);
  common::MutexLock lk(mu_);
  const auto it = fet_tables_.emplace(v, std::move(ft)).first;
  return model::IntrinsicFet(it->second.current_A, it->second.charge_C, pol, offset);
}

circuit::InverterModels DesignKit::inverter(double vt_target) {
  return inverter_with_variants({12, 0.0}, {12, 0.0}, 0, vt_target);
}

circuit::InverterModels DesignKit::inverter_with_variants(const VariantSpec& n_variant,
                                                          const VariantSpec& p_variant,
                                                          int affected, double vt_target) {
  const double offset = vt0() - vt_target;
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
  // Generate the shared nominal table (and vt0) before fanning out so the
  // parallel points only do circuit work under the kit's cache locks.
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
    const std::vector<circuit::InverterModels> stages(15, inv);
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
