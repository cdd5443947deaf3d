#include "circuit/measure.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/snm.hpp"

namespace gnrfet::circuit {

std::vector<double> crossing_times(const std::vector<double>& time,
                                   const std::vector<double>& wave, double level, bool rising) {
  std::vector<double> out;
  for (size_t i = 1; i < wave.size(); ++i) {
    const bool crosses = rising ? (wave[i - 1] < level && wave[i] >= level)
                                : (wave[i - 1] > level && wave[i] <= level);
    if (crosses) {
      const double t = time[i - 1] + (time[i] - time[i - 1]) * (level - wave[i - 1]) /
                                         (wave[i] - wave[i - 1]);
      out.push_back(t);
    }
  }
  return out;
}

namespace {

/// Input ramp time of the FO4 testbench's rise and fall.
constexpr double kInputRiseTime_s = 2e-12;
/// Time step of the inverter probe transient.
constexpr double kInverterStep_s = 0.1e-12;
/// The ring is measured over this trailing fraction of its rising
/// crossings (the settled oscillation).
constexpr double kRingMeasureFraction = 0.5;

/// Energy delivered by the supply over [t_a, t_b]; i_branch is the VDD
/// source branch current (P = -vdd * i).
double supply_energy(const std::vector<double>& time, const std::vector<double>& i_branch,
                     double vdd, double t_a, double t_b) {
  double e = 0.0;
  for (size_t i = 1; i < time.size(); ++i) {
    const double lo = std::max(time[i - 1], t_a);
    const double hi = std::min(time[i], t_b);
    if (hi <= lo) continue;
    const double pm = -vdd * 0.5 * (i_branch[i] + i_branch[i - 1]);
    e += pm * (hi - lo);
  }
  return e;
}

}  // namespace

InverterMetrics measure_inverter(const InverterModels& driver, const InverterModels& load,
                                 double vdd) {
  InverterMetrics m;
  m.static_power_W = inverter_static_power(driver, vdd);
  {
    const Vtc vtc = compute_vtc(driver, vdd);
    m.snm_V = butterfly_snm(vtc, vtc);
  }

  // One full input cycle: rise at T/4, fall at 3T/4.
  const double period = kInverterProbePeriod_s;
  const double t_rise_in = 0.25 * period;
  const double t_fall_in = 0.75 * period;
  const auto waveform = [=](double t) {
    if (t < t_rise_in) return 0.0;
    if (t < t_rise_in + kInputRiseTime_s) return vdd * (t - t_rise_in) / kInputRiseTime_s;
    if (t < t_fall_in) return vdd;
    if (t < t_fall_in + kInputRiseTime_s) {
      return vdd * (1.0 - (t - t_fall_in) / kInputRiseTime_s);
    }
    return 0.0;
  };
  Fo4Testbench tb = build_fo4_inverter(driver, load, vdd, waveform);
  TransientOptions topt;
  topt.t_stop = 1.25 * period;
  topt.dt = kInverterStep_s;
  const TransientResult tr = run_transient(tb.ckt, topt);
  if (!tr.ok) return m;

  const auto v_in = tr.waves.node(tb.ckt, tb.in);
  const auto v_out = tr.waves.node(tb.ckt, tb.out);
  const auto i_vdd = tr.waves.branch(tb.ckt, tb.vdd_branch);
  const double mid = 0.5 * vdd;

  const auto in_rise = crossing_times(tr.waves.time, v_in, mid, true);
  const auto in_fall = crossing_times(tr.waves.time, v_in, mid, false);
  const auto out_rise = crossing_times(tr.waves.time, v_out, mid, true);
  const auto out_fall = crossing_times(tr.waves.time, v_out, mid, false);
  if (in_rise.empty() || in_fall.empty() || out_rise.empty() || out_fall.empty()) return m;
  // Output falls after the input rise and rises after the input fall.
  const auto first_after = [](const std::vector<double>& ts, double t0) {
    for (const double t : ts) {
      if (t > t0) return t;
    }
    return -1.0;
  };
  const double t_hl = first_after(out_fall, in_rise.front());
  const double t_lh = first_after(out_rise, in_fall.front());
  if (t_hl < 0.0 || t_lh < 0.0) return m;
  m.delay_s = 0.5 * ((t_hl - in_rise.front()) + (t_lh - in_fall.front()));

  // Dynamic power: supply energy of the full cycle minus leakage.
  const double e_cycle = supply_energy(tr.waves.time, i_vdd, vdd, 0.125 * period,
                                       1.125 * period);
  m.dynamic_power_W = std::max(0.0, e_cycle / period - m.static_power_W);
  m.ok = true;
  return m;
}

RingMetrics measure_ring_oscillator(const std::vector<InverterModels>& stages,
                                    const InverterModels& load, double vdd,
                                    const RingMeasureOptions& opts) {
  RingMetrics m;
  for (const auto& s : stages) m.static_power_W += inverter_static_power(s, vdd);

  RingOscillator ro = build_ring_oscillator(stages, load, vdd);
  TransientOptions topt;
  topt.t_stop = opts.t_stop_s;
  topt.dt = opts.dt_s;
  topt.initial_x = ro.kick_state(&m.dc_start_converged);
  const TransientResult tr = run_transient(ro.ckt, topt);
  if (!tr.ok) return m;

  const auto v0 = tr.waves.node(ro.ckt, ro.stage_out.front());
  const auto i_vdd = tr.waves.branch(ro.ckt, ro.vdd_branch);
  const auto cross = crossing_times(tr.waves.time, v0, 0.5 * vdd, true);
  if (cross.size() < 3) return m;  // did not oscillate (or too slow)
  // Measure over the trailing crossings (settled oscillation), keeping at
  // least two full periods.
  const size_t first = std::min(cross.size() - 3, static_cast<size_t>(
                                    static_cast<double>(cross.size()) *
                                    (1.0 - kRingMeasureFraction)));
  const std::vector<double> tail(cross.begin() + static_cast<ptrdiff_t>(first), cross.end());
  const size_t cycles = tail.size() - 1;
  m.frequency_Hz = static_cast<double>(cycles) / (tail.back() - tail.front());
  const double energy = supply_energy(tr.waves.time, i_vdd, vdd, tail.front(), tail.back());
  m.total_power_W = energy / (tail.back() - tail.front());
  m.dynamic_power_W = std::max(0.0, m.total_power_W - m.static_power_W);
  m.energy_per_cycle_J = m.total_power_W / m.frequency_Hz;
  // EDP convention (matches the fJ-ps magnitudes of Table 1): energy per
  // oscillation cycle times the per-stage FO4 delay T / (2 * N_stages).
  const double stage_delay = 1.0 / (2.0 * static_cast<double>(stages.size()) * m.frequency_Hz);
  m.edp_Js = m.energy_per_cycle_J * stage_delay;
  m.ok = true;
  return m;
}

}  // namespace gnrfet::circuit
