#include "explore/montecarlo.hpp"

#include <algorithm>
#include <cmath>

#include "circuit/netlists.hpp"
#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"

namespace gnrfet::explore {

int draw_discretized_normal(std::mt19937& rng) {
  // P(x < -sigma/2) = P(x > +sigma/2).
  constexpr double kOuter = 0.30854;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double x = u(rng);
  if (x < kOuter) return -1;
  if (x > 1.0 - kOuter) return 1;
  return 0;
}

std::vector<VariantSpec> monte_carlo_variants() {
  return {{9, -1.0},  {9, 0.0},  {9, 1.0},  {12, -1.0}, {12, 0.0},
          {12, 1.0},  {15, -1.0}, {15, 0.0}, {15, 1.0}};
}

MonteCarloResult run_ring_monte_carlo(DesignKit& kit, const MonteCarloOptions& opts) {
  trace::Span span("explore", "run_ring_monte_carlo");
  MonteCarloResult result;

  const circuit::InverterModels nominal = kit.inverter(opts.vt);
  result.nominal =
      circuit::measure_ring_oscillator(
          std::vector<circuit::InverterModels>(circuit::kRingStages, nominal), nominal, opts.vdd,
          opts.ring);

  // Width draws: N = 12 + 3 * z with z in {-1, 0, +1} -> {9, 12, 15};
  // charge draws: q = z in {-1, 0, +1}. Warm every table the draws can
  // reach before fanning out (mirrors explore_plane's vt0() warm-up): a
  // cold-cache miss inside a sample would otherwise stall that sample on
  // a full NEGF table generation. warm() resolves the cold ones in the
  // listed order.
  kit.warm(monte_carlo_variants());

  // Samples run in parallel; each draws from its own generator seeded by
  // seed_seq-mixing (seed, sample index), so every sample's variant stream
  // is a pure function of its index — statistics are invariant to thread
  // count and scheduling, and adjacent indices get uncorrelated states.
  const size_t nsamples = opts.samples > 0 ? static_cast<size_t>(opts.samples) : 0;
  result.samples.assign(nsamples, MonteCarloSample{});
  par::parallel_for(nsamples, [&](size_t s) {
    trace::Span sample_span("explore", "mc_sample");
    std::seed_seq seq{opts.seed, static_cast<unsigned>(s)};
    std::mt19937 rng(seq);
    std::vector<circuit::InverterModels> stages;
    stages.reserve(circuit::kRingStages);
    for (size_t i = 0; i < circuit::kRingStages; ++i) {
      const VariantSpec nv{12 + 3 * draw_discretized_normal(rng),
                           static_cast<double>(draw_discretized_normal(rng))};
      const VariantSpec pv{12 + 3 * draw_discretized_normal(rng),
                           static_cast<double>(draw_discretized_normal(rng))};
      stages.push_back(kit.inverter_with_variants(nv, pv, 4, opts.vt));
    }
    const circuit::RingMetrics m =
        circuit::measure_ring_oscillator(stages, nominal, opts.vdd, opts.ring);
    GNRFET_ENSURE("explore", "finite-sample-metrics",
                  !m.ok || (std::isfinite(m.frequency_Hz) && std::isfinite(m.static_power_W) &&
                            std::isfinite(m.dynamic_power_W)),
                  strings::format("sample %zu: f = %g Hz, Pstat = %g W, Pdyn = %g W", s,
                                  m.frequency_Hz, m.static_power_W, m.dynamic_power_W));
    MonteCarloSample sample;
    sample.ok = m.ok;
    sample.dc_start_converged = m.dc_start_converged;
    sample.frequency_Hz = m.frequency_Hz;
    sample.static_power_W = m.static_power_W;
    sample.dynamic_power_W = m.dynamic_power_W;
    result.samples[s] = sample;
  });

  double n_ok = 0.0;
  for (const auto& s : result.samples) {
    if (!s.ok) continue;
    result.mean_frequency_Hz += s.frequency_Hz;
    result.mean_static_power_W += s.static_power_W;
    result.mean_dynamic_power_W += s.dynamic_power_W;
    n_ok += 1.0;
  }
  if (n_ok > 0.0) {
    result.mean_frequency_Hz /= n_ok;
    result.mean_static_power_W /= n_ok;
    result.mean_dynamic_power_W /= n_ok;
  }
  return result;
}

Histogram histogram(const std::vector<double>& values, int bins) {
  Histogram h;
  if (values.empty() || bins < 1) return h;
  const auto [mn_it, mx_it] = std::minmax_element(values.begin(), values.end());
  double lo = *mn_it, hi = *mx_it;
  if (hi - lo < 1e-30) hi = lo + 1.0;
  const double w = (hi - lo) / bins;
  h.bin_centers.resize(static_cast<size_t>(bins));
  h.counts.assign(static_cast<size_t>(bins), 0);
  for (int b = 0; b < bins; ++b) h.bin_centers[static_cast<size_t>(b)] = lo + (b + 0.5) * w;
  for (const double v : values) {
    const int b = std::min(bins - 1, static_cast<int>((v - lo) / w));
    h.counts[static_cast<size_t>(b)]++;
  }
  return h;
}

}  // namespace gnrfet::explore
