/// Ring-oscillator lab: sweep the supply voltage of the 15-stage FO4
/// GNRFET ring oscillator and watch frequency, power, and EDP trade off —
/// the experiment behind the Fig. 3(b) exploration plane, one axis at a
/// time.
#include <cstdio>
#include <cstdlib>

#include "circuit/measure.hpp"
#include "circuit/netlists.hpp"
#include "explore/tech_explore.hpp"

using namespace gnrfet;

int main(int argc, char** argv) {
  const double vt = argc > 1 ? std::atof(argv[1]) : 0.13;
  explore::DesignKit kit;
  const circuit::InverterModels inv = kit.inverter(vt);

  std::printf("15-stage FO4 GNRFET ring oscillator, VT = %.2f V\n", vt);
  std::printf("%-8s %-10s %-12s %-12s %-14s\n", "VDD(V)", "f (GHz)", "Ptot (uW)", "E/cyc (fJ)",
              "EDP (fJ-ps)");
  for (double vdd = 0.25; vdd <= 0.651; vdd += 0.1) {
    circuit::RingMeasureOptions opts;
    opts.t_stop_s = 2e-9;
    opts.dt_s = 0.4e-12;
    const auto m = circuit::measure_ring_oscillator(
        std::vector<circuit::InverterModels>(circuit::kRingStages, inv), inv, vdd, opts);
    if (!m.ok) {
      std::printf("%-8.2f (does not oscillate)\n", vdd);
      continue;
    }
    std::printf("%-8.2f %-10.2f %-12.4g %-12.4g %-14.4g\n", vdd, m.frequency_Hz / 1e9,
                m.total_power_W * 1e6, m.energy_per_cycle_J * 1e15, m.edp_Js * 1e27);
  }
  std::printf("\nRaising VDD buys frequency at quadratic energy cost; the EDP minimum\n"
              "sits at an intermediate supply (Sec. 3.1 of the paper).\n");
  return 0;
}
