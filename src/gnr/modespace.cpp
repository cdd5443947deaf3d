#include "gnr/modespace.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace gnrfet::gnr {

double Mode::band_edge_eV() const {
  return std::min(std::abs(t_dimer + t_stair), std::abs(t_dimer - t_stair));
}

double Mode::band_top_eV() const {
  return std::max(std::abs(t_dimer + t_stair), std::abs(t_dimer - t_stair));
}

double ModeSet::band_gap_eV() const {
  return modes.empty() ? 0.0 : 2.0 * modes.front().band_edge_eV();
}

ModeSet build_mode_set(int n_index, const TightBindingParams& params, int num_modes) {
  if (n_index < 3) throw std::invalid_argument("build_mode_set: GNR index must be >= 3");
  if (num_modes < 1) throw std::invalid_argument("build_mode_set: need >= 1 mode");
  const int n = n_index;
  ModeSet set;
  set.n_index = n;
  set.params = params;
  const double t = params.hopping_eV;
  // Keep one representative per gauge-equivalent pair (p, N+1-p): the
  // cos(theta) > 0 side, plus the self-paired middle mode (odd N) at half
  // weight. This makes the mode-space density of states equal the
  // real-space one (N/2 states per atomic column).
  for (int p = 1; 2 * p <= n + 1; ++p) {
    Mode m;
    m.p = p;
    m.degeneracy = (2 * p == n + 1) ? 0.5 : 1.0;
    const double theta = p * std::numbers::pi / (n + 1);
    m.weight.resize(static_cast<size_t>(n));
    double edge_w = 0.0;
    for (int j = 0; j < n; ++j) {
      const double phi = std::sqrt(2.0 / (n + 1)) * std::sin(theta * (j + 1));
      m.weight[static_cast<size_t>(j)] = phi * phi;
    }
    edge_w = m.weight.front() + m.weight.back();
    m.t_dimer = t * (1.0 + params.edge_delta * edge_w);
    m.t_stair = 2.0 * t * std::cos(theta);
    set.modes.push_back(std::move(m));
  }
  std::sort(set.modes.begin(), set.modes.end(),
            [](const Mode& a, const Mode& b) { return a.band_edge_eV() < b.band_edge_eV(); });
  if (set.modes.size() > static_cast<size_t>(num_modes)) {
    set.modes.resize(static_cast<size_t>(num_modes));
  }
  // Each transverse mode profile is normalized: its dimer-line weights are
  // |phi_p(j)|^2 and must sum to 1, or the mode-space charge would not
  // conserve the real-space density of states.
  for (const auto& m : set.modes) {
    double wsum = 0.0;
    for (const double w : m.weight) wsum += w;
    GNRFET_ENSURE("gnr", "normalized-mode-weights", std::abs(wsum - 1.0) <= 1e-12 * n,
                  strings::format("mode p = %d: sum of weights = %.15g", m.p, wsum));
  }
  GNRFET_ENSURE("gnr", "physical-band-gap",
                std::isfinite(set.band_gap_eV()) && set.band_gap_eV() >= 0.0,
                strings::format("band gap = %g eV", set.band_gap_eV()));
  return set;
}

}  // namespace gnrfet::gnr
