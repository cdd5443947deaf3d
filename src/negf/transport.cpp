#include "negf/transport.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "common/constants.hpp"
#include "common/contracts.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "gnr/hamiltonian.hpp"
#include "negf/batch_rgf.hpp"
#include "negf/rgf.hpp"
#include "negf/selfenergy.hpp"

namespace gnrfet::negf {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Energies per parallel chunk. The chunk layout is part of the numerical
/// contract: partial sums are folded in chunk order, so results are
/// bit-identical for any thread count (see common/parallel.hpp).
constexpr size_t kEnergyGrain = 8;

/// Margin (eV) beyond the band top past which a mode's spectral function
/// is treated as zero.
constexpr double kSupportMargin_eV = 0.05;

/// The source Fermi level: the energy zero of the device.
constexpr double kMuSource_eV = 0.0;
constexpr double kT_eV = constants::kRoomTemperatureKT_eV;

constexpr double kMaxDouble = std::numeric_limits<double>::max();

/// Bipolar charge for one orbital at one energy: electron density above
/// the local mid-gap u (weighted by f), hole density below it (weighted by
/// 1 - f), both spin-degenerate and injected from the two contacts.
struct BipolarDensity {
  double electrons = 0.0;
  double holes = 0.0;
};

BipolarDensity bipolar_density(double a_l, double a_r, double energy, double u, double f1,
                               double f2) {
  BipolarDensity d;
  if (energy >= u) {
    d.electrons = 2.0 * (a_l * f1 + a_r * f2) / kTwoPi;
  } else {
    d.holes = 2.0 * (a_l * (1.0 - f1) + a_r * (1.0 - f2)) / kTwoPi;
  }
  return d;
}

/// Indices of `points` (ascending) inside [lo_cut, hi_cut]: the same set
/// the per-energy predicate `e < lo_cut || e > hi_cut` would keep, hoisted
/// to one binary search per mode.
std::pair<size_t, size_t> index_window(const std::vector<double>& points, double lo_cut,
                                       double hi_cut) {
  const auto lo = std::lower_bound(points.begin(), points.end(), lo_cut);
  const auto hi = std::upper_bound(points.begin(), points.end(), hi_cut);
  return {static_cast<size_t>(lo - points.begin()), static_cast<size_t>(hi - points.begin())};
}

/// Per-chunk accumulator of the energy integral: the Landauer current
/// integrand and the bipolar charge per site (chain site or atom).
struct EnergyPartial {
  double current = 0.0;
  std::vector<double> n, p;
};

/// The energy integral of both transport paths over `grid`: the current
/// integrand sum w T (f1 - f2) and the bipolar charge of every site, each
/// scaled by `degeneracy`, with degeneracy * T added into `transmission`.
/// Only indices [i_lo, i_hi) are solved; `solve_chunk(first, count, out)`
/// solves energies first .. first + count - 1 and writes energy first + k
/// into lane k of `out` (its site rows follow `site_u`). This is the one
/// place where the raw planes become contact charge: every solved (site,
/// energy) pair is checked against the spectral sum rule and split into
/// A_L = max(0, A_tot - A_R) and A_R. The grid is cut into kEnergyGrain
/// chunks whose partials fold in chunk order, so the result is
/// bit-identical for any thread count.
template <class SolveChunk>
EnergyPartial integrate_energy(const EnergyGrid& grid, size_t i_lo, size_t i_hi,
                               const std::vector<double>& site_u, double degeneracy,
                               double mu_drain_eV, std::vector<double>& transmission,
                               const SolveChunk& solve_chunk) {
  const size_t nsites = site_u.size();
  EnergyPartial init;
  init.n.assign(nsites, 0.0);
  init.p.assign(nsites, 0.0);
  return par::parallel_reduce_ordered<EnergyPartial>(
      grid.points.size(), kEnergyGrain, std::move(init),
      [&](size_t begin, size_t end) {
        EnergyPartial part;
        part.n.assign(nsites, 0.0);
        part.p.assign(nsites, 0.0);
        const size_t e_begin = std::max(begin, i_lo);
        const size_t e_end = std::min(end, i_hi);
        const size_t nsolve = e_end > e_begin ? e_end - e_begin : 0;
        if (nsolve > 0) {
          // Fermi factors hoisted out of the accumulation loop: the same
          // per-energy constants::fermi calls, precomputed once per chunk.
          thread_local std::vector<double> f1v, f2v;
          f1v.resize(nsolve);
          f2v.resize(nsolve);
          fermi_factors(grid.points.data() + e_begin, nsolve, kMuSource_eV, kT_eV, f1v.data());
          fermi_factors(grid.points.data() + e_begin, nsolve, mu_drain_eV, kT_eV, f2v.data());
          // The per-thread result makes the loop allocation-free once warm.
          thread_local ScalarRgfBatchResult br;
          solve_chunk(e_begin, nsolve, br);
          for (size_t k = 0; k < nsolve; ++k) {
            const size_t ie = e_begin + k;
            const double e = grid.points[ie];
            const double w = grid.weights[ie];
            transmission[ie] += degeneracy * br.transmission[k];
            const double f1 = f1v[k];
            const double f2 = f2v[k];
            part.current += w * degeneracy * br.transmission[k] * (f1 - f2);
            for (size_t s = 0; s < nsites; ++s) {
              const double a_tot = br.spectral_total_row(s)[k];
              const double a_r = br.spectral_right_row(s)[k];
              // Spectral sum rule A = G (Gamma_L + Gamma_R + 2 eta) G^dagger
              // on the diagonal: A_tot >= A_R >= 0 up to roundoff. A violation
              // means the drain-injected density exceeds the total density of
              // states: the failure mode of a corrupted H or self-energy. The
              // first clause implies the second (A_tot is then finite) and
              // settles the exact case in three compares, so the check costs
              // this loop about what it cost the kernel; the second admits
              // roundoff.
              GNRFET_ENSURE("negf", "spectral-sum-rule",
                            (a_tot - a_r >= 0.0 && a_tot - a_r <= kMaxDouble && a_r >= 0.0) ||
                                (std::isfinite(a_tot) && a_r >= -1e-9 &&
                                 a_tot - a_r >= -1e-9 * (1.0 + std::abs(a_tot) + std::abs(a_r))),
                            strings::format("site %zu: A_tot = %g, A_R = %g at E = %g", s, a_tot,
                                            a_r, e));
              // Source-injected A_L as the remainder of the total, which also
              // absorbs the small eta-broadening background.
              const double a_l = std::max(0.0, a_tot - a_r);
              const BipolarDensity d = bipolar_density(a_l, a_r, e, site_u[s], f1, f2);
              part.n[s] += w * degeneracy * d.electrons;
              part.p[s] += w * degeneracy * d.holes;
            }
          }
        }
        // One counter add per chunk, not per energy: metrics stay off the
        // innermost loop.
        metrics::add(metrics::Counter::kRgfSolves, static_cast<uint64_t>(nsolve));
        return part;
      },
      [](EnergyPartial& acc, EnergyPartial&& part) {
        acc.current += part.current;
        for (size_t s = 0; s < acc.n.size(); ++s) {
          acc.n[s] += part.n[s];
          acc.p[s] += part.p[s];
        }
      });
}

/// The uniform grid over the charge window of mid-gap range [u_min, u_max],
/// counted in the energy-point metrics, and `sol` zeroed on it with
/// [ncol][nlines] charge arrays.
EnergyGrid open_solution(double u_min, double u_max, double band_top,
                         const TransportOptions& opts, size_t ncol, size_t nlines,
                         TransportSolution& sol) {
  const EnergyWindow win =
      charge_window(u_min, u_max, kMuSource_eV, opts.mu_drain_eV, kT_eV, band_top);
  EnergyGrid grid = make_energy_grid(win.lo, win.hi, opts.energy_step_eV);
  metrics::add(metrics::Counter::kNegfEnergyPoints, grid.points.size());
  metrics::observe(metrics::Histogram::kEnergyPointsPerTransport,
                   static_cast<double>(grid.points.size()));
  sol.electrons.assign(ncol, std::vector<double>(nlines, 0.0));
  sol.holes.assign(ncol, std::vector<double>(nlines, 0.0));
  sol.energies_eV = grid.points;
  sol.transmission.assign(grid.points.size(), 0.0);
  return grid;
}

/// Sets the current from the Landauer integral and checks that current and
/// net charge came out finite.
void close_solution(double current_integral, TransportSolution& sol) {
  sol.current_A = constants::kCurrentPrefactor * current_integral;
  GNRFET_ENSURE("negf", "finite-current",
                std::isfinite(sol.current_A) && std::isfinite(sol.total_net_electrons),
                strings::format("current_A = %g, net electrons = %g", sol.current_A,
                                sol.total_net_electrons));
}

}  // namespace

TransportSolution solve_mode_space(const gnr::ModeSet& modes,
                                   const std::vector<std::vector<double>>& potential_eV,
                                   const TransportOptions& opts) {
  trace::Span span("negf", "solve_mode_space");
  const size_t ncol = potential_eV.size();
  const size_t nlines = static_cast<size_t>(modes.n_index);
  if (ncol < 4) throw std::invalid_argument("solve_mode_space: need >= 4 columns");
  for (const auto& col : potential_eV) {
    if (col.size() != nlines) {
      throw std::invalid_argument("solve_mode_space: potential must be [columns][N]");
    }
  }
  GNRFET_REQUIRE("negf", "finite-potential", contracts::all_finite(potential_eV),
                 "mid-gap potential contains NaN/inf (diverged Poisson input?)");

  // Mode-averaged potential per column, and window bounds.
  std::vector<std::vector<double>> u_mode(modes.modes.size(), std::vector<double>(ncol, 0.0));
  double u_min = 1e300, u_max = -1e300, band_top = 0.0;
  for (size_t p = 0; p < modes.modes.size(); ++p) {
    const auto& m = modes.modes[p];
    band_top = std::max(band_top, m.band_top_eV());
    for (size_t c = 0; c < ncol; ++c) {
      double u = 0.0;
      for (size_t j = 0; j < nlines; ++j) u += m.weight[j] * potential_eV[c][j];
      u_mode[p][c] = u;
      u_min = std::min(u_min, u);
      u_max = std::max(u_max, u);
    }
  }

  TransportSolution sol;
  const EnergyGrid grid = open_solution(u_min, u_max, band_top, opts, ncol, nlines, sol);

  // Per-mode chains are static except for onsite; reuse buffers.
  ScalarChain chain;
  chain.onsite.resize(ncol);
  chain.hopping.resize(ncol - 1);
  chain.gamma_left = kContactGamma_eV;
  chain.gamma_right = kContactGamma_eV;

  double current_integral = 0.0;  // Integral T (f1 - f2) dE

  for (size_t p = 0; p < modes.modes.size(); ++p) {
    const auto& m = modes.modes[p];
    for (size_t c = 0; c + 1 < ncol; ++c) {
      // Columns pair into dimers within a slice: bond (2m -> 2m+1) is the
      // dimer hopping, (2m+1 -> 2m+2) the staircase hopping.
      chain.hopping[c] = (c % 2 == 0) ? -m.t_dimer : -m.t_stair;
    }
    for (size_t c = 0; c < ncol; ++c) chain.onsite[c] = u_mode[p][c];

    // Energies with no propagating/evanescent weight anywhere in this mode
    // — outside [u_min - band_top, u_max + band_top] plus margin — carry a
    // negligible spectral function and are skipped. The skip predicate is
    // hoisted to an index range: the same energies as the per-energy
    // test, in the same chunk layout, so partial sums fold identically.
    const double skip_lo = u_min - m.band_top_eV() - kSupportMargin_eV;
    const double skip_hi = u_max + m.band_top_eV() + kSupportMargin_eV;
    const auto [i_lo, i_hi] = index_window(grid.points, skip_lo, skip_hi);
    // One SoA kernel call per chunk; lane k holds the bit-identical result
    // of the per-energy solve at first + k. The per-thread workspace makes
    // the solve allocation-free once warm.
    const EnergyPartial mode_sum = integrate_energy(
        grid, i_lo, i_hi, u_mode[p], m.degeneracy, opts.mu_drain_eV, sol.transmission,
        [&](size_t first, size_t count, ScalarRgfBatchResult& out) {
          thread_local ScalarRgfBatchWorkspace bws;
          scalar_rgf_solve_batch(chain, grid.points.data() + first, count, kEta_eV, bws, out);
        });
    current_integral += mode_sum.current;

    // Distribute the mode charge across dimer lines with the mode weights.
    for (size_t c = 0; c < ncol; ++c) {
      for (size_t j = 0; j < nlines; ++j) {
        sol.electrons[c][j] += mode_sum.n[c] * m.weight[j];
        sol.holes[c][j] += mode_sum.p[c] * m.weight[j];
      }
    }
  }

  for (size_t c = 0; c < ncol; ++c) {
    for (size_t j = 0; j < nlines; ++j) {
      sol.total_net_electrons += sol.electrons[c][j] - sol.holes[c][j];
    }
  }
  close_solution(current_integral, sol);
  return sol;
}

TransportSolution solve_real_space(const gnr::Lattice& lat,
                                   const gnr::TightBindingParams& params,
                                   const std::vector<double>& onsite_eV,
                                   const TransportOptions& opts) {
  trace::Span span("negf", "solve_real_space");
  const gnr::BlockTridiagonal h = build_hamiltonian(lat, params, onsite_eV);
  GNRFET_REQUIRE("negf", "finite-potential", contracts::all_finite(onsite_eV),
                 "onsite energy array contains NaN/inf (diverged Poisson input?)");
  const auto [u_lo, u_hi] = std::minmax_element(onsite_eV.begin(), onsite_eV.end());
  const double band_top = 3.0 * params.hopping_eV * (1.0 + params.edge_delta);
  // The real-space path is the validation/reference solver, on the same
  // uniform grid as the mode-space path.
  const size_t ncol = lat.column_x_nm().size();
  TransportSolution sol;
  const EnergyGrid grid = open_solution(*u_lo, *u_hi, band_top, opts, ncol,
                                        static_cast<size_t>(lat.n_index()), sol);

  const auto& slices = lat.slice_atoms();
  const linalg::CMatrix sig_l = wide_band_self_energy(h.diag.front().rows(), kContactGamma_eV);
  const linalg::CMatrix sig_r = wide_band_self_energy(h.diag.back().rows(), kContactGamma_eV);
  // One block-RGF solve per energy. Its orbitals run slice by slice; each
  // goes to its atom's row of lane k, so the sites are the atoms.
  const EnergyPartial sum = integrate_energy(
      grid, 0, grid.points.size(), onsite_eV, 1.0, opts.mu_drain_eV, sol.transmission,
      [&](size_t first, size_t count, ScalarRgfBatchResult& out) {
        thread_local RgfWorkspace ws;
        thread_local RgfResult r;
        out.transmission.resize(count);
        out.spectral_total.resize(onsite_eV.size() * count);
        out.spectral_right.resize(onsite_eV.size() * count);
        for (size_t k = 0; k < count; ++k) {
          rgf_solve(h, grid.points[first + k], kEta_eV, sig_l, sig_r, ws, r);
          out.transmission[k] = r.transmission;
          size_t orb = 0;
          for (const auto& slice : slices) {
            for (const size_t atom : slice) {
              out.spectral_total[atom * count + k] = r.spectral_total[orb];
              out.spectral_right[atom * count + k] = r.spectral_right[orb];
              ++orb;
            }
          }
        }
      });

  // Resolve per (column, dimer line): each slice holds two columns; the
  // column of an atom follows from its x offset within the slice.
  for (size_t a = 0; a < lat.atoms().size(); ++a) {
    const auto& atom = lat.atoms()[a];
    const size_t col = static_cast<size_t>(2 * atom.slice) +
                       (std::abs(atom.x_nm - lat.column_x_nm()[static_cast<size_t>(2 * atom.slice)]) < 1e-9 ? 0 : 1);
    sol.electrons[col][static_cast<size_t>(atom.dimer_line)] += sum.n[a];
    sol.holes[col][static_cast<size_t>(atom.dimer_line)] += sum.p[a];
    sol.total_net_electrons += sum.n[a] - sum.p[a];
  }
  close_solution(sum.current, sol);
  return sol;
}

}  // namespace gnrfet::negf
