/// Table 1 reproduction: 15-stage FO4 ring-oscillator frequency, EDP, and
/// inverter SNM for the GNRFET operating points A/B/C against scaled CMOS
/// at the 22/32/45 nm nodes with VDD in {0.4, 0.6, 0.8} V. The headline
/// claim is the 40-168x EDP advantage of GNRFETs at comparable operating
/// points.
#include <cstdio>

#include "bench_common.hpp"
#include "circuit/netlists.hpp"
#include "circuit/snm.hpp"
#include "cmos/nodes.hpp"
#include "explore/tech_explore.hpp"

using namespace gnrfet;

namespace {

struct Row {
  std::string label;
  double freq_GHz = 0.0;
  double edp_fJps = 0.0;
  double snm_V = 0.0;
};

Row measure(const std::string& label, const circuit::InverterModels& inv, double vdd,
            const circuit::RingMeasureOptions& opts) {
  const circuit::RingMetrics m = circuit::measure_ring_oscillator(
      std::vector<circuit::InverterModels>(circuit::kRingStages, inv), inv, vdd, opts);
  const circuit::Vtc vtc = circuit::compute_vtc(inv, vdd);
  Row r;
  r.label = label;
  r.freq_GHz = m.frequency_Hz / 1e9;
  r.edp_fJps = m.edp_Js * 1e27;
  r.snm_V = circuit::butterfly_snm(vtc, vtc);
  return r;
}

}  // namespace

int main() {
  bench::banner("Table 1: GNRFET (A/B/C) vs scaled CMOS ring oscillators");
  circuit::RingMeasureOptions ropt;
  ropt.t_stop_s = 2.0e-9;
  ropt.dt_s = 0.4e-12;

  std::vector<Row> rows;
  explore::DesignKit kit;
  // The paper's operating points (VDD, VT): A=(0.3, 0.06), B=(0.4, 0.13),
  // C=(0.4, 0.23).
  rows.push_back(measure("GNRFET A (0.3V,VT=0.06)", kit.inverter(0.06), 0.3, ropt));
  rows.push_back(measure("GNRFET B (0.4V,VT=0.13)", kit.inverter(0.13), 0.4, ropt));
  rows.push_back(measure("GNRFET C (0.4V,VT=0.23)", kit.inverter(0.23), 0.4, ropt));

  circuit::RingMeasureOptions cmos_ropt;
  cmos_ropt.t_stop_s = 4.0e-9;
  cmos_ropt.dt_s = 1.0e-12;
  for (const auto node : {cmos::Node::k22nm, cmos::Node::k32nm, cmos::Node::k45nm}) {
    const circuit::InverterModels inv = cmos::make_cmos_inverter(node);
    for (const double vdd : {0.8, 0.6, 0.4}) {
      rows.push_back(measure(std::string("CMOS ") + cmos::node_name(node) + " " +
                                 std::to_string(vdd).substr(0, 3) + "V",
                             inv, vdd, cmos_ropt));
    }
  }

  csv::Table out({"row", "freq_GHz", "edp_fJps", "snm_V"});
  std::printf("%-26s %-10s %-12s %-8s\n", "design", "f (GHz)", "EDP (fJ-ps)", "SNM (V)");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-26s %-10.2f %-12.4g %-8.3f\n", rows[i].label.c_str(), rows[i].freq_GHz,
                rows[i].edp_fJps, rows[i].snm_V);
    out.add_row({static_cast<double>(i), rows[i].freq_GHz, rows[i].edp_fJps, rows[i].snm_V});
  }
  // EDP advantage of point B against the best (lowest) CMOS EDP per node.
  const double edp_b = rows[1].edp_fJps;
  const char* names[] = {"22nm", "32nm", "45nm"};
  for (int n = 0; n < 3; ++n) {
    double best = 1e300;
    for (int v = 0; v < 3; ++v) best = std::min(best, rows[3 + 3 * n + v].edp_fJps);
    std::printf("EDP advantage of GNRFET B vs %s optimum: %.0fx (paper: 40-168x)\n", names[n],
                best / edp_b);
  }
  bench::save_csv(out, "table1_comparison");
  return 0;
}
