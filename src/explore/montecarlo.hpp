#pragma once

#include <random>

#include "explore/tech_explore.hpp"

/// Monte Carlo study of Fig. 6: a 15-stage FO4 ring oscillator whose
/// inverters carry independent width (N in {9,12,15}) and charge-impurity
/// (q in {-1,0,+1}) draws from discretized normal distributions with the
/// off-nominal values at one sigma.
namespace gnrfet::explore {

/// One draw of a normal discretized to the nearest of {-1, 0, +1} sigma
/// with boundaries at +-sigma/2: P(outer) ~ 0.3085, P(center) ~ 0.3829.
/// Returns -1, 0 or +1.
int draw_discretized_normal(std::mt19937& rng);

struct MonteCarloOptions {
  int samples = 200;
  /// Base seed (DAC 2008 conference date). Sample s draws from a fresh
  /// mt19937 seeded via std::seed_seq{seed, s}, so the sample streams are
  /// independent of thread count and scheduling, and distinct (seed, s)
  /// pairs get uncorrelated generator states.
  unsigned seed = 20080608;
  double vt = kPointB_VT;
  double vdd = kPointB_VDD;
  circuit::RingMeasureOptions ring;
};

struct MonteCarloSample {
  double frequency_Hz = 0.0;
  double static_power_W = 0.0;
  double dynamic_power_W = 0.0;
  bool dc_start_converged = false;  ///< RingMetrics::dc_start_converged
  bool ok = false;
};

struct MonteCarloResult {
  std::vector<MonteCarloSample> samples;
  circuit::RingMetrics nominal;
  double mean_frequency_Hz = 0.0;
  double mean_static_power_W = 0.0;
  double mean_dynamic_power_W = 0.0;
};

/// Every variant a draw can reach: N in {9, 12, 15} x q in {-1, 0, +1}.
std::vector<VariantSpec> monte_carlo_variants();

MonteCarloResult run_ring_monte_carlo(DesignKit& kit, const MonteCarloOptions& opts);

/// Histogram helper for the bench output.
struct Histogram {
  std::vector<double> bin_centers;
  std::vector<int> counts;
};

Histogram histogram(const std::vector<double>& values, int bins);

}  // namespace gnrfet::explore
