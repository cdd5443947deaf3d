/// Fig. 2 reproduction: (a) ambipolar I-V characteristics of the ideal
/// N=12 GNRFET at several drain biases (minimum leakage at VG ~ VD/2,
/// on-current density ~10^3-10^4 uA/um); (b) threshold-voltage extraction
/// by the max-gm linear-extrapolation method at low VD, with and without a
/// gate work-function offset.
#include <cstdio>

#include "bench_common.hpp"
#include "common/constants.hpp"
#include "device/sweeps.hpp"
#include "explore/tech_explore.hpp"

using namespace gnrfet;

int main() {
  bench::banner("Fig. 2(a): I-V of ideal N=12 GNRFET");
  explore::DesignKit kit;
  bench::PhaseTimer table_timer("fig2_device_iv/table_generation");
  const device::DeviceTable& t = kit.table({12, 0.0});
  table_timer.stop();
  const double width_um =
      (12 - 1) * 0.123 * 1e-3;  // ribbon width in um for current density

  csv::Table out({"vg_V", "vd_V", "id_A"});
  const double vds[] = {0.25, 0.50, 0.75};
  for (const double vd : vds) {
    // Locate the vd column (0.05 V grid).
    size_t ivd = 0;
    for (size_t i = 0; i < t.vd.size(); ++i) {
      if (std::abs(t.vd[i] - vd) < 1e-9) ivd = i;
    }
    std::printf("VD = %.2f V:\n  VG(V)  ID(A)\n", vd);
    double id_min = 1e9, vg_min = 0.0;
    for (size_t ig = 0; ig < t.vg.size(); ++ig) {
      if (t.vg[ig] > 0.75 + 1e-9) break;
      const double id = t.at_current(ig, ivd);
      out.add_row({t.vg[ig], vd, id});
      std::printf("  %5.2f  %.4e\n", t.vg[ig], id);
      if (id < id_min) {
        id_min = id;
        vg_min = t.vg[ig];
      }
    }
    std::printf("  -> min leakage %.3e A at VG = %.2f V (VD/2 = %.2f V)\n", id_min, vg_min,
                vd / 2);
  }
  // On-current density at VD = 0.5 V, VG = 0.75 V.
  {
    size_t ivd = 10;  // 0.50 V
    size_t ig = 15;   // 0.75 V
    const double ion = t.at_current(ig, ivd);
    std::printf("Ion/W at VD=0.5, VG=0.75: %.0f uA/um (paper: ~6300 uA/um at VG=0.5..0.75)\n",
                ion * 1e6 / width_um);
  }
  bench::save_csv(out, "fig2a_iv");

  bench::banner("Fig. 2(b): VT extraction at low VD");
  {
    const size_t ivd = 1;  // 0.05 V
    std::vector<double> id(t.vg.size());
    for (size_t ig = 0; ig < t.vg.size(); ++ig) id[ig] = t.at_current(ig, ivd);
    const double vt0 = device::extract_threshold_voltage(t.vg, id);
    std::printf("offset 0.0 V: VT = %.3f V (paper: ~0.3 V)\n", vt0);
    // A 0.2 V work-function offset shifts the curve left: VT drops by 0.2.
    std::vector<double> vg_shift(t.vg);
    for (auto& v : vg_shift) v -= 0.2;
    const double vt_off = device::extract_threshold_voltage(vg_shift, id);
    std::printf("offset 0.2 V: VT = %.3f V (paper: ~0.1 V)\n", vt_off);
    csv::Table vt({"vg_V", "id_A_vd0p05"});
    for (size_t ig = 0; ig < t.vg.size(); ++ig) vt.add_row({t.vg[ig], id[ig]});
    bench::save_csv(vt, "fig2b_vt_extraction");
  }
  return 0;
}
