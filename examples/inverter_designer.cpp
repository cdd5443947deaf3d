/// Inverter designer: pick a (VDD, VT) design point, build the extrinsic
/// 4-GNR complementary inverter from the cached intrinsic tables, and
/// report delay, powers, and noise margin — the circuit-level flow of
/// Sec. 3. First run generates the N=12 device table (a few minutes);
/// afterwards the cache makes this instant.
#include <cstdio>
#include <cstdlib>

#include "circuit/measure.hpp"
#include "explore/tech_explore.hpp"

using namespace gnrfet;

int main(int argc, char** argv) {
  const double vdd = argc > 1 ? std::atof(argv[1]) : 0.4;
  const double vt = argc > 2 ? std::atof(argv[2]) : 0.13;
  std::printf("designing GNRFET inverter at VDD = %.2f V, VT = %.2f V\n", vdd, vt);

  explore::DesignKit kit;
  std::printf("intrinsic device VT0 = %.3f V -> gate work-function offset %.3f V\n",
              kit.vt0(), kit.vt0() - vt);

  const circuit::InverterModels inv = kit.inverter(vt);
  const circuit::InverterMetrics m = circuit::measure_inverter(inv, inv, vdd);
  if (!m.ok) {
    std::printf("measurement failed (design point may not switch)\n");
    return 1;
  }
  std::printf("\nFO4 delay        : %.2f ps\n", m.delay_s * 1e12);
  std::printf("static power     : %.4g uW\n", m.static_power_W * 1e6);
  std::printf("dynamic power    : %.4g uW (full cycle at %.0f ps period)\n",
              m.dynamic_power_W * 1e6, circuit::kInverterProbePeriod_s * 1e12);
  std::printf("static noise marg: %.3f V\n", m.snm_V);
  std::printf("\n(paper operating point B: 7.54 ps, 0.095 uW, 0.706 uW, 0.15 V)\n");
  return 0;
}
