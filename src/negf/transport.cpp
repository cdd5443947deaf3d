#include "negf/transport.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <stdexcept>

#include "common/constants.hpp"
#include "common/contracts.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "gnr/hamiltonian.hpp"
#include "negf/adaptive.hpp"
#include "negf/batch_rgf.hpp"
#include "negf/rgf.hpp"
#include "negf/scalar_rgf.hpp"
#include "negf/selfenergy.hpp"

namespace gnrfet::negf {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Energies per parallel chunk. The chunk layout is part of the numerical
/// contract: partial sums are folded in chunk order, so results are
/// bit-identical for any thread count (see common/parallel.hpp).
constexpr size_t kEnergyGrain = 8;

/// Margin (eV) beyond the band top past which a mode's spectral function
/// is treated as zero — shared by the uniform skip range and the adaptive
/// per-mode windows.
constexpr double kSupportMargin_eV = 0.05;

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

/// Integration window: explicit override when the caller set one, else
/// the automatic bipolar charge window.
EnergyWindow resolve_window(const TransportOptions& opts, double u_min, double u_max,
                            double band_top) {
  if (std::isfinite(opts.window_lo_eV) && std::isfinite(opts.window_hi_eV)) {
    EnergyWindow w;
    w.lo = opts.window_lo_eV;
    w.hi = opts.window_hi_eV;
    return w;
  }
  return charge_window(u_min, u_max, opts.mu_source_eV, opts.mu_drain_eV, opts.kT_eV, band_top);
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

/// Per-chunk accumulator for one mode's slice of the energy grid.
struct ModePartial {
  double current = 0.0;
  double current_reverse = 0.0;
  std::vector<double> col_n, col_p;
};

}  // namespace

NegfGridKind negf_grid_from_env() {
  const std::string s = common::env_or("GNRFET_NEGF_GRID", "uniform");
  if (s == "uniform") return NegfGridKind::kUniform;
  if (s == "adaptive") return NegfGridKind::kAdaptive;
  throw std::invalid_argument("GNRFET_NEGF_GRID must be 'uniform' or 'adaptive', got '" + s +
                              "'");
}

TransportSolution solve_mode_space(const gnr::ModeSet& modes,
                                   const std::vector<std::vector<double>>& potential_eV,
                                   const TransportOptions& opts) {
  TransportContext ctx;
  return solve_mode_space(modes, potential_eV, opts, ctx);
}

TransportSolution solve_mode_space(const gnr::ModeSet& modes,
                                   const std::vector<std::vector<double>>& potential_eV,
                                   const TransportOptions& opts, TransportContext& ctx) {
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

  const NegfGridKind kind = negf_grid_from_env();
  // Batched SoA kernel vs legacy per-energy solves: read once per solve,
  // shared by every chunk. Either branch is bit-identical (the batch
  // kernel's contract), so this only selects throughput.
  const bool batch = rgf_batch_enabled();
  const EnergyWindow win = resolve_window(opts, u_min, u_max, band_top);
  const EnergyGrid grid = make_energy_grid(win.lo, win.hi, opts.energy_step_eV);

  TransportSolution sol;
  sol.electrons.assign(ncol, std::vector<double>(nlines, 0.0));
  sol.holes.assign(ncol, std::vector<double>(nlines, 0.0));
  if (kind == NegfGridKind::kUniform) {
    sol.energies_eV = grid.points;
    sol.transmission.assign(grid.points.size(), 0.0);
    metrics::add(metrics::Counter::kNegfEnergyPoints, grid.points.size());
    metrics::observe(metrics::Histogram::kEnergyPointsPerTransport,
                     static_cast<double>(grid.points.size()));
  }

  // Per-mode chains are static except for onsite; reuse buffers.
  ScalarChain chain;
  chain.onsite.resize(ncol);
  chain.hopping.resize(ncol - 1);
  chain.gamma_left = opts.gamma_contact_eV;
  chain.gamma_right = opts.gamma_contact_eV;

  double current_integral = 0.0;          // Integral T (f1 - f2) dE
  double current_integral_reverse = 0.0;  // Same, from drain-side transmissions

  // Adaptive bookkeeping: merged (energy -> summed deg * T) diagnostic and
  // total evaluations across modes.
  std::map<double, double> merged_transmission;
  size_t adaptive_points = 0;
  if (kind == NegfGridKind::kAdaptive && ctx.mode_edges.size() != modes.modes.size()) {
    ctx.mode_edges.assign(modes.modes.size(), {});
  }

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
    // negligible spectral function and are skipped. The uniform path uses
    // the global u range (the pre-adaptive predicate, kept bit-identical);
    // the adaptive path tightens to the mode's own onsite range.
    const double skip_lo = u_min - m.band_top_eV() - kSupportMargin_eV;
    const double skip_hi = u_max + m.band_top_eV() + kSupportMargin_eV;

    if (kind == NegfGridKind::kUniform) {
      // Hoist the skip predicate to an index range: the set of solved
      // energies — and the chunk layout of the reduction — is exactly the
      // pre-adaptive one, so partial sums fold identically.
      const auto [i_lo, i_hi] = index_window(grid.points, skip_lo, skip_hi);
      ModePartial init;
      init.col_n.assign(ncol, 0.0);
      init.col_p.assign(ncol, 0.0);
      const ModePartial mode_sum = par::parallel_reduce_ordered<ModePartial>(
          grid.points.size(), kEnergyGrain, std::move(init),
          [&, i_lo = i_lo, i_hi = i_hi](size_t begin, size_t end) {
            ModePartial part;
            part.col_n.assign(ncol, 0.0);
            part.col_p.assign(ncol, 0.0);
            const size_t e_begin = std::max(begin, i_lo);
            const size_t e_end = std::min(end, i_hi);
            const size_t nsolve = e_end > e_begin ? e_end - e_begin : 0;
            if (nsolve > 0) {
              // Fermi factors hoisted out of the accumulation loop: the
              // same per-energy constants::fermi calls, precomputed once
              // per chunk and shared by the batched and legacy branches.
              thread_local std::vector<double> f1v, f2v;
              f1v.resize(nsolve);
              f2v.resize(nsolve);
              fermi_factors(grid.points.data() + e_begin, nsolve, opts.mu_source_eV, opts.kT_eV,
                            f1v.data());
              fermi_factors(grid.points.data() + e_begin, nsolve, opts.mu_drain_eV, opts.kT_eV,
                            f2v.data());
              if (batch) {
                // One SoA kernel call for the whole chunk; lane k holds the
                // bit-identical result of the per-energy solve at e_begin+k.
                thread_local ScalarRgfBatchWorkspace bws;
                thread_local ScalarRgfBatchResult br;
                scalar_rgf_solve_batch(chain, grid.points.data() + e_begin, nsolve, opts.eta_eV,
                                       bws, br);
                for (size_t k = 0; k < nsolve; ++k) {
                  const size_t ie = e_begin + k;
                  const double e = grid.points[ie];
                  const double w = grid.weights[ie];
                  sol.transmission[ie] += m.degeneracy * br.transmission[k];
                  const double f1 = f1v[k];
                  const double f2 = f2v[k];
                  part.current += w * m.degeneracy * br.transmission[k] * (f1 - f2);
                  part.current_reverse +=
                      w * m.degeneracy * br.transmission_reverse[k] * (f1 - f2);
                  for (size_t c = 0; c < ncol; ++c) {
                    const BipolarDensity d =
                        bipolar_density(br.spectral_left_row(c)[k], br.spectral_right_row(c)[k],
                                        e, u_mode[p][c], f1, f2);
                    part.col_n[c] += w * m.degeneracy * d.electrons;
                    part.col_p[c] += w * m.degeneracy * d.holes;
                  }
                }
              } else {
                // One workspace per thread, reused across every energy,
                // mode, and solve: the RGF inner loop is allocation-free
                // once warm.
                thread_local ScalarRgfWorkspace ws;
                thread_local ScalarRgfResult r;
                for (size_t ie = e_begin; ie < e_end; ++ie) {
                  const double e = grid.points[ie];
                  const double w = grid.weights[ie];
                  scalar_rgf_solve(chain, e, opts.eta_eV, ws, r);
                  sol.transmission[ie] += m.degeneracy * r.transmission;
                  const double f1 = f1v[ie - e_begin];
                  const double f2 = f2v[ie - e_begin];
                  part.current += w * m.degeneracy * r.transmission * (f1 - f2);
                  part.current_reverse += w * m.degeneracy * r.transmission_reverse * (f1 - f2);
                  for (size_t c = 0; c < ncol; ++c) {
                    const BipolarDensity d = bipolar_density(r.spectral_left[c],
                                                             r.spectral_right[c], e,
                                                             u_mode[p][c], f1, f2);
                    part.col_n[c] += w * m.degeneracy * d.electrons;
                    part.col_p[c] += w * m.degeneracy * d.holes;
                  }
                }
              }
            }
            // One counter add per chunk, not per energy: metrics stay off
            // the innermost loop.
            metrics::add(metrics::Counter::kRgfSolves, static_cast<uint64_t>(nsolve));
            return part;
          },
          [](ModePartial& acc, ModePartial&& part) {
            acc.current += part.current;
            acc.current_reverse += part.current_reverse;
            for (size_t c = 0; c < acc.col_n.size(); ++c) {
              acc.col_n[c] += part.col_n[c];
              acc.col_p[c] += part.col_p[c];
            }
          });
      current_integral += mode_sum.current;
      current_integral_reverse += mode_sum.current_reverse;

      // Distribute the mode charge across dimer lines with the mode weights.
      for (size_t c = 0; c < ncol; ++c) {
        for (size_t j = 0; j < nlines; ++j) {
          sol.electrons[c][j] += mode_sum.col_n[c] * m.weight[j];
          sol.holes[c][j] += mode_sum.col_p[c] * m.weight[j];
        }
      }
      continue;
    }

    // ---- Adaptive path ----
    // Tighten to the mode's own support: its onsite energies span
    // [u_p_min, u_p_max], not the global u range.
    double u_p_min = 1e300, u_p_max = -1e300;
    for (size_t c = 0; c < ncol; ++c) {
      u_p_min = std::min(u_p_min, u_mode[p][c]);
      u_p_max = std::max(u_p_max, u_mode[p][c]);
    }
    const double mode_lo = std::max(win.lo, u_p_min - m.band_top_eV() - kSupportMargin_eV);
    const double mode_hi = std::min(win.hi, u_p_max + m.band_top_eV() + kSupportMargin_eV);
    // What the uniform path would have solved for this mode (its skip
    // range intersected with the uniform grid), counted beside the
    // adaptive evaluations so their ratio shows a loss as well as a gain.
    const auto [u_ilo, u_ihi] = index_window(grid.points, skip_lo, skip_hi);
    metrics::add(metrics::Counter::kNegfEnergyPointsUniformEquiv,
                 u_ihi > u_ilo ? u_ihi - u_ilo : 0);
    if (!(mode_hi - mode_lo > opts.energy_step_eV)) {
      // Mode entirely outside the integration window: zero contribution,
      // zero RGF solves.
      continue;
    }

    // Component layout: [0] deg*T (diagnostic), [1] forward and [2]
    // reverse current integrands, [3, 3+2*ncol) smooth per-column spectral
    // charge: occupied (A f) and empty (A (1-f)) states. The bipolar
    // electron/hole split is NOT a component — it jumps at each column's
    // mid-gap u_c, and integrating it directly leaks Simpson error from
    // every panel touching a jump (the two panels meeting at a seeded u_c
    // share the endpoint value, which belongs to only one side). Instead,
    // the panel sink below assigns each retired panel's smooth occupied /
    // empty integrals to electrons or holes by the panel's position
    // relative to u_c; with u_c seeded as panel edges the split is exact.
    const size_t ncomp = 3 + 2 * ncol;
    const size_t i_nraw = 3, i_praw = 3 + ncol;
    std::vector<ErrorGroup> groups(2);
    groups[0] = {1, 3, 1e-12};
    groups[1] = {i_nraw, ncomp, 1e-12};

    // Initial panels: coarse composite-Simpson grid (or the previous
    // Gummel iteration's converged edges) plus physics breakpoints where
    // the integrand kinks — contact Fermi levels and the mode's subband
    // edges at both extremes of its onsite profile.
    std::vector<double> seeds;
    // Default coarse step: 80 meV (~3 kT at room temperature — Fermi-tail
    // and subband features wider than this are caught by the seeded
    // breakpoints, narrower ones by refinement), never finer than 8 fine
    // steps so a deliberately coarse uniform step stays the lower bound.
    const double coarse = opts.adaptive_coarse_step_eV > 0.0
                              ? opts.adaptive_coarse_step_eV
                              : std::max(0.08, 8.0 * opts.energy_step_eV);
    const std::vector<double>& warm = ctx.mode_edges[p];
    if (!warm.empty()) {
      seeds = warm;
    } else {
      const auto n_panels = static_cast<size_t>(std::ceil((mode_hi - mode_lo) / coarse));
      const double h = (mode_hi - mode_lo) / static_cast<double>(std::max<size_t>(2, n_panels));
      for (size_t k = 1; k * h < mode_hi - mode_lo; ++k) {
        seeds.push_back(mode_lo + h * static_cast<double>(k));
      }
    }
    const double breakpoints[] = {opts.mu_source_eV,
                                  opts.mu_drain_eV,
                                  u_p_min - m.band_edge_eV(),
                                  u_p_min + m.band_edge_eV(),
                                  u_p_max - m.band_edge_eV(),
                                  u_p_max + m.band_edge_eV()};
    seeds.insert(seeds.end(), std::begin(breakpoints), std::end(breakpoints));
    // Per-column structure: the spectral function spikes (eta-wide van
    // Hove remnants) at the local subband edges u_c +- band_edge, and the
    // mid-gaps u_c are where the panel sink splits electrons from holes.
    // A coarse panel can alias straight over an eta-wide spike — its
    // error estimate never sees it — so pin all three families to panel
    // edges; the quarter-point probes then land on the structure and
    // refinement takes over. Clustered to a quarter of the coarse step to
    // bound the panel count; mid-gaps that lose their own edge fall back
    // to the sink's linear split over an in-gap panel, where the spectral
    // weight is smallest.
    {
      const double resolution = std::max(opts.energy_step_eV, 0.25 * coarse);
      std::vector<double> marks;
      marks.reserve(3 * ncol);
      for (size_t c = 0; c < ncol; ++c) {
        marks.push_back(u_mode[p][c]);
        marks.push_back(u_mode[p][c] - m.band_edge_eV());
        marks.push_back(u_mode[p][c] + m.band_edge_eV());
      }
      std::sort(marks.begin(), marks.end());
      double last = -1e300;
      for (const double e : marks) {
        if (e - last >= resolution) {
          seeds.push_back(e);
          last = e;
        }
      }
    }

    AdaptiveOptions aopts;
    aopts.rel_tol = opts.adaptive_rel_tol;
    const BatchEval eval = [&](const std::vector<double>& energies,
                               std::vector<std::vector<double>>& values) {
      par::parallel_for_chunks(
          energies.size(), kEnergyGrain, [&](size_t, size_t begin, size_t end) {
            const size_t nsolve = end - begin;
            if (nsolve == 0) return;
            // Hoisted Fermi factors, shared by both branches (see the
            // uniform path).
            thread_local std::vector<double> f1v, f2v;
            f1v.resize(nsolve);
            f2v.resize(nsolve);
            fermi_factors(energies.data() + begin, nsolve, opts.mu_source_eV, opts.kT_eV,
                          f1v.data());
            fermi_factors(energies.data() + begin, nsolve, opts.mu_drain_eV, opts.kT_eV,
                          f2v.data());
            if (batch) {
              // The refinement round's stencil evaluations for this chunk
              // in one SoA kernel call; results scatter back into their
              // own slots in the existing ascending order, so the panel
              // bookkeeping (and thread-count determinism) is untouched.
              thread_local ScalarRgfBatchWorkspace bws;
              thread_local ScalarRgfBatchResult br;
              scalar_rgf_solve_batch(chain, energies.data() + begin, nsolve, opts.eta_eV, bws,
                                     br);
              for (size_t k = 0; k < nsolve; ++k) {
                const double f1 = f1v[k];
                const double f2 = f2v[k];
                std::vector<double>& v = values[begin + k];
                v.assign(ncomp, 0.0);
                v[0] = m.degeneracy * br.transmission[k];
                v[1] = m.degeneracy * br.transmission[k] * (f1 - f2);
                v[2] = m.degeneracy * br.transmission_reverse[k] * (f1 - f2);
                for (size_t c = 0; c < ncol; ++c) {
                  const double a_l = br.spectral_left_row(c)[k];
                  const double a_r = br.spectral_right_row(c)[k];
                  v[i_nraw + c] = m.degeneracy * 2.0 * (a_l * f1 + a_r * f2) / kTwoPi;
                  v[i_praw + c] =
                      m.degeneracy * 2.0 * (a_l * (1.0 - f1) + a_r * (1.0 - f2)) / kTwoPi;
                }
              }
            } else {
              thread_local ScalarRgfWorkspace ws;
              thread_local ScalarRgfResult r;
              for (size_t k = begin; k < end; ++k) {
                const double e = energies[k];
                scalar_rgf_solve(chain, e, opts.eta_eV, ws, r);
                const double f1 = f1v[k - begin];
                const double f2 = f2v[k - begin];
                std::vector<double>& v = values[k];
                v.assign(ncomp, 0.0);
                v[0] = m.degeneracy * r.transmission;
                v[1] = m.degeneracy * r.transmission * (f1 - f2);
                v[2] = m.degeneracy * r.transmission_reverse * (f1 - f2);
                for (size_t c = 0; c < ncol; ++c) {
                  const double a_l = r.spectral_left[c];
                  const double a_r = r.spectral_right[c];
                  v[i_nraw + c] = m.degeneracy * 2.0 * (a_l * f1 + a_r * f2) / kTwoPi;
                  v[i_praw + c] =
                      m.degeneracy * 2.0 * (a_l * (1.0 - f1) + a_r * (1.0 - f2)) / kTwoPi;
                }
              }
            }
            metrics::add(metrics::Counter::kRgfSolves, static_cast<uint64_t>(nsolve));
          });
    };
    // Panel-aligned bipolar split: a retired panel entirely above column
    // c's mid-gap contributes its occupied-state integral to electrons,
    // one entirely below contributes its empty-state integral to holes.
    // u_c is seeded as a panel edge (splits only add edges, so it stays
    // one), making the split exact for every un-clustered column; a panel
    // straddling a clustered-away u_c (within one energy_step of a kept
    // seed) is split linearly — an O(step * A) remainder.
    std::vector<double> mode_el(ncol, 0.0), mode_hl(ncol, 0.0);
    const PanelSink sink = [&](double a, double b, const std::vector<double>& contrib) {
      for (size_t c = 0; c < ncol; ++c) {
        const double u_c = u_mode[p][c];
        if (a >= u_c) {
          mode_el[c] += contrib[i_nraw + c];
        } else if (b <= u_c) {
          mode_hl[c] += contrib[i_praw + c];
        } else {
          const double frac = (b - u_c) / (b - a);
          mode_el[c] += frac * contrib[i_nraw + c];
          mode_hl[c] += (1.0 - frac) * contrib[i_praw + c];
        }
      }
    };
    const AdaptiveResult res =
        adaptive_integrate(mode_lo, mode_hi, ncomp, seeds, groups, aopts, eval, sink);
    ctx.mode_edges[p] = res.edges;

    current_integral += res.integrals[1];
    current_integral_reverse += res.integrals[2];
    for (size_t c = 0; c < ncol; ++c) {
      for (size_t j = 0; j < nlines; ++j) {
        sol.electrons[c][j] += mode_el[c] * m.weight[j];
        sol.holes[c][j] += mode_hl[c] * m.weight[j];
      }
    }
    for (size_t k = 0; k < res.points.size(); ++k) {
      merged_transmission[res.points[k]] += res.first_component[k];
    }
    adaptive_points += res.evaluations;
    metrics::add(metrics::Counter::kNegfEnergyPoints, res.evaluations);
    for (size_t d = 0; d < res.depth_counts.size(); ++d) {
      for (uint32_t k = 0; k < res.depth_counts[d]; ++k) {
        metrics::observe(metrics::Histogram::kAdaptiveRefinementDepth,
                         static_cast<double>(d));
      }
    }
  }

  if (kind == NegfGridKind::kAdaptive) {
    sol.energies_eV.reserve(merged_transmission.size());
    sol.transmission.reserve(merged_transmission.size());
    for (const auto& [e, t] : merged_transmission) {
      sol.energies_eV.push_back(e);
      sol.transmission.push_back(t);
    }
    metrics::observe(metrics::Histogram::kEnergyPointsPerTransport,
                     static_cast<double>(adaptive_points));
  }

  sol.current_A = constants::kCurrentPrefactor * current_integral;
  sol.current_drain_A = constants::kCurrentPrefactor * current_integral_reverse;
  for (size_t c = 0; c < ncol; ++c) {
    for (size_t j = 0; j < nlines; ++j) {
      sol.total_net_electrons += sol.electrons[c][j] - sol.holes[c][j];
    }
  }
  GNRFET_ENSURE("negf", "finite-current",
                std::isfinite(sol.current_A) && std::isfinite(sol.total_net_electrons),
                strings::format("current_A = %g, net electrons = %g", sol.current_A,
                                sol.total_net_electrons));
  return sol;
}

TransportSolution solve_real_space(const gnr::Lattice& lat,
                                   const gnr::TightBindingParams& params,
                                   const std::vector<double>& onsite_eV,
                                   const TransportOptions& opts) {
  trace::Span span("negf", "solve_real_space");
  const gnr::BlockTridiagonal h = build_hamiltonian(lat, params, onsite_eV);
  const size_t nb = h.num_blocks();
  const auto& slices = lat.slice_atoms();

  double u_min = 1e300, u_max = -1e300;
  for (const double u : onsite_eV) {
    u_min = std::min(u_min, u);
    u_max = std::max(u_max, u);
  }
  const double band_top = 3.0 * params.hopping_eV * (1.0 + params.edge_delta);
  // The real-space path is the validation/reference solver: it always
  // integrates on the uniform grid regardless of GNRFET_NEGF_GRID (the
  // opt-in adaptive layer serves only the mode-space path).
  const EnergyWindow win = resolve_window(opts, u_min, u_max, band_top);
  const EnergyGrid grid = make_energy_grid(win.lo, win.hi, opts.energy_step_eV);
  metrics::add(metrics::Counter::kNegfEnergyPoints, grid.points.size());
  metrics::observe(metrics::Histogram::kEnergyPointsPerTransport,
                   static_cast<double>(grid.points.size()));

  const linalg::CMatrix sig_l = wide_band_self_energy(h.diag.front().rows(), opts.gamma_contact_eV);
  const linalg::CMatrix sig_r = wide_band_self_energy(h.diag.back().rows(), opts.gamma_contact_eV);

  TransportSolution sol;
  sol.energies_eV = grid.points;
  sol.transmission.assign(grid.points.size(), 0.0);

  /// Per-chunk accumulator over the real-space energy grid.
  struct RealPartial {
    double current = 0.0;
    std::vector<double> n_atom, p_atom;
  };
  const size_t natoms = lat.atoms().size();

  // Parallel over energies (one block-RGF solve each); transmission writes
  // are disjoint per ie and the charge/current partials fold in fixed
  // chunk order — bit-identical for any thread count.
  RealPartial init;
  init.n_atom.assign(natoms, 0.0);
  init.p_atom.assign(natoms, 0.0);
  GNRFET_REQUIRE("negf", "finite-potential", contracts::all_finite(onsite_eV),
                 "onsite energy array contains NaN/inf (diverged Poisson input?)");
  const RealPartial sum = par::parallel_reduce_ordered<RealPartial>(
      grid.points.size(), kEnergyGrain, std::move(init),
      [&](size_t begin, size_t end) {
        RealPartial part;
        part.n_atom.assign(natoms, 0.0);
        part.p_atom.assign(natoms, 0.0);
        thread_local RgfWorkspace ws;
        thread_local RgfResult r;
        for (size_t ie = begin; ie < end; ++ie) {
          const double e = grid.points[ie];
          const double w = grid.weights[ie];
          rgf_solve(h, e, opts.eta_eV, sig_l, sig_r, ws, r);
          sol.transmission[ie] = r.transmission;
          const double f1 = constants::fermi(e - opts.mu_source_eV, opts.kT_eV);
          const double f2 = constants::fermi(e - opts.mu_drain_eV, opts.kT_eV);
          part.current += w * r.transmission * (f1 - f2);
          size_t orb = 0;
          for (size_t b = 0; b < nb; ++b) {
            for (const size_t atom : slices[b]) {
              const BipolarDensity d = bipolar_density(r.spectral_left[orb], r.spectral_right[orb],
                                                       e, onsite_eV[atom], f1, f2);
              part.n_atom[atom] += w * d.electrons;
              part.p_atom[atom] += w * d.holes;
              ++orb;
            }
          }
        }
        metrics::add(metrics::Counter::kRgfSolves, static_cast<uint64_t>(end - begin));
        return part;
      },
      [](RealPartial& acc, RealPartial&& part) {
        acc.current += part.current;
        for (size_t a = 0; a < acc.n_atom.size(); ++a) {
          acc.n_atom[a] += part.n_atom[a];
          acc.p_atom[a] += part.p_atom[a];
        }
      });
  const std::vector<double>& n_per_atom = sum.n_atom;
  const std::vector<double>& p_per_atom = sum.p_atom;
  sol.current_A = constants::kCurrentPrefactor * sum.current;
  sol.current_drain_A = sol.current_A;  // block RGF has no independent drain-side solve

  // Resolve per (column, dimer line): each slice holds two columns; the
  // column of an atom follows from its x offset within the slice.
  const size_t ncol = lat.column_x_nm().size();
  sol.electrons.assign(ncol, std::vector<double>(static_cast<size_t>(lat.n_index()), 0.0));
  sol.holes.assign(ncol, std::vector<double>(static_cast<size_t>(lat.n_index()), 0.0));
  for (size_t a = 0; a < lat.atoms().size(); ++a) {
    const auto& atom = lat.atoms()[a];
    const size_t col = static_cast<size_t>(2 * atom.slice) +
                       (std::abs(atom.x_nm - lat.column_x_nm()[static_cast<size_t>(2 * atom.slice)]) < 1e-9 ? 0 : 1);
    sol.electrons[col][static_cast<size_t>(atom.dimer_line)] += n_per_atom[a];
    sol.holes[col][static_cast<size_t>(atom.dimer_line)] += p_per_atom[a];
    sol.total_net_electrons += n_per_atom[a] - p_per_atom[a];
  }
  return sol;
}

}  // namespace gnrfet::negf
