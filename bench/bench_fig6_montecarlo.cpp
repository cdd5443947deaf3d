/// Fig. 6 reproduction: Monte Carlo over the 15-stage FO4 ring oscillator
/// with independent per-inverter width (N in {9,12,15}) and charge
/// (q in {-1,0,+1}) draws from discretized normals (off-nominal values at
/// one sigma). The paper reports mean frequency ~10% below nominal, mean
/// static power ~23% above nominal, and unchanged mean dynamic power.
///
/// Sample count defaults to 60 for bench runtime; set GNRFET_MC_SAMPLES to
/// raise it (the paper used tens of thousands on their cluster).
#include <cstdio>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "explore/montecarlo.hpp"

using namespace gnrfet;

int main() {
  bench::banner("Fig. 6: Monte Carlo over the 15-stage ring oscillator");
  explore::DesignKit kit;
  explore::MonteCarloOptions opts;
  opts.samples = common::env::get_positive_int("GNRFET_MC_SAMPLES", 60);
  opts.ring.t_stop_s = 1.5e-9;
  opts.ring.dt_s = 0.5e-12;
  std::printf("samples: %d (override with GNRFET_MC_SAMPLES)\n", opts.samples);

  bench::PhaseTimer mc_timer("fig6_montecarlo", "monte_carlo");
  const auto mc = explore::run_ring_monte_carlo(kit, opts);
  mc_timer.stop();
  std::printf("nominal: f = %.3f GHz, Pdyn = %.4g uW, Pstat = %.4g uW\n",
              mc.nominal.frequency_Hz / 1e9, mc.nominal.dynamic_power_W * 1e6,
              mc.nominal.static_power_W * 1e6);
  std::printf("MC mean: f = %.3f GHz (%+.1f%%), Pdyn = %.4g uW (%+.1f%%), "
              "Pstat = %.4g uW (%+.1f%%)\n",
              mc.mean_frequency_Hz / 1e9,
              100.0 * (mc.mean_frequency_Hz / mc.nominal.frequency_Hz - 1.0),
              mc.mean_dynamic_power_W * 1e6,
              100.0 * (mc.mean_dynamic_power_W / mc.nominal.dynamic_power_W - 1.0),
              mc.mean_static_power_W * 1e6,
              100.0 * (mc.mean_static_power_W / mc.nominal.static_power_W - 1.0));
  std::printf("(paper: mean f -10%%, mean Pstat +23%%, mean Pdyn unchanged)\n");
  size_t valid = 0, zero_start = 0;
  for (const auto& s : mc.samples) {
    valid += s.ok ? 1 : 0;
    zero_start += s.dc_start_converged ? 0 : 1;
  }
  std::printf("valid samples: %zu of %zu; rings started from the zero state (DC start "
              "unconverged): %zu of %zu\n",
              valid, mc.samples.size(), zero_start, mc.samples.size());
  const metrics::Snapshot work = metrics::snapshot();
  const auto count = [&work](metrics::Counter c) {
    return static_cast<unsigned long long>(work.counters[static_cast<size_t>(c)]);
  };
  std::printf("transient steps rejected and retried as two half steps: %llu; transients "
              "given up on a step: %llu\n",
              count(metrics::Counter::kTransientStepRejections),
              count(metrics::Counter::kTransientStepFailures));

  csv::Table samples({"frequency_GHz", "pdyn_uW", "pstat_uW"});
  std::vector<double> fs, pd, ps;
  for (const auto& s : mc.samples) {
    if (!s.ok) continue;
    samples.add_row({s.frequency_Hz / 1e9, s.dynamic_power_W * 1e6, s.static_power_W * 1e6});
    fs.push_back(s.frequency_Hz / 1e9);
    pd.push_back(s.dynamic_power_W * 1e6);
    ps.push_back(s.static_power_W * 1e6);
  }
  bench::save_csv(samples, "fig6_mc_samples");

  const auto print_hist = [](const char* name, const std::vector<double>& v) {
    const auto h = explore::histogram(v, 9);
    std::printf("%s histogram:\n", name);
    for (size_t b = 0; b < h.bin_centers.size(); ++b) {
      std::printf("  %8.3f | %s (%d)\n", h.bin_centers[b],
                  std::string(static_cast<size_t>(h.counts[b]), '#').c_str(), h.counts[b]);
    }
  };
  print_hist("frequency (GHz)", fs);
  print_hist("dynamic power (uW)", pd);
  print_hist("static power (uW)", ps);
  return 0;
}
