#pragma once

#include "circuit/netlists.hpp"

/// Waveform post-processing: delays, oscillation frequency, powers, and
/// the inverter/ring-oscillator figure-of-merit drivers used by the
/// technology-exploration and variability studies.
namespace gnrfet::circuit {

/// Times at which `wave` crosses `level` in the given direction (linear
/// interpolation between samples).
std::vector<double> crossing_times(const std::vector<double>& time,
                                   const std::vector<double>& wave, double level, bool rising);

/// Figures of merit of one inverter design (fixed driver/load models).
struct InverterMetrics {
  double delay_s = 0.0;          ///< FO4 propagation delay (rise/fall average)
  double static_power_W = 0.0;   ///< leakage power, mean of the two states
  double dynamic_power_W = 0.0;  ///< switching power at the probe frequency
  double snm_V = 0.0;            ///< butterfly SNM of the inverter pair
  bool ok = false;
};

/// Full switching cycle of the FO4 probe; InverterMetrics::dynamic_power_W
/// is the switching power at its frequency.
inline constexpr double kInverterProbePeriod_s = 200e-12;

/// Full inverter characterization at supply `vdd`: DC leakage, FO4
/// transient delay, dynamic power over one switching cycle, and butterfly
/// SNM.
InverterMetrics measure_inverter(const InverterModels& driver, const InverterModels& load,
                                 double vdd);

/// Ring-oscillator figures of merit.
struct RingMetrics {
  double frequency_Hz = 0.0;
  double total_power_W = 0.0;    ///< supply power at oscillation
  double static_power_W = 0.0;   ///< leakage of the 15 inverters (DC)
  double dynamic_power_W = 0.0;  ///< total - static
  double energy_per_cycle_J = 0.0;
  double edp_Js = 0.0;  ///< energy per cycle x period
  /// The ring's DC start converged; when false the transient was kicked
  /// from all zeros (RingOscillator::kick_state).
  bool dc_start_converged = false;
  bool ok = false;
};

struct RingMeasureOptions {
  double t_stop_s = 3.0e-9;
  double dt_s = 0.25e-12;
};

/// The ring of `stages` (each loaded by `load`, FO4) at supply `vdd`.
RingMetrics measure_ring_oscillator(const std::vector<InverterModels>& stages,
                                    const InverterModels& load, double vdd,
                                    const RingMeasureOptions& opts);

}  // namespace gnrfet::circuit
