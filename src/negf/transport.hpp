#pragma once

#include <limits>
#include <vector>

#include "gnr/lattice.hpp"
#include "gnr/modespace.hpp"
#include "negf/energygrid.hpp"

/// Ballistic transport drivers: integrate the RGF spectral quantities over
/// energy to produce terminal current and the spatially resolved net mobile
/// charge that feeds back into the Poisson equation.
///
/// Bipolar convention: the pz model is particle-hole symmetric, so the
/// local charge-neutrality level equals the local mid-gap energy (the
/// electrostatic potential energy U). States above it count as electrons
/// weighted by f, states below as holes weighted by (1 - f); both injected
/// from the two contacts with their own Fermi levels. Spin degeneracy 2 is
/// included.
namespace gnrfet::negf {

/// Energy-integration strategy, selected by GNRFET_NEGF_GRID.
enum class NegfGridKind {
  kUniform,   ///< fixed-step trapezoid grid (default; pre-adaptive behavior, bit-identical)
  kAdaptive,  ///< deterministic adaptive Simpson refinement (opt-in)
};

/// Resolve GNRFET_NEGF_GRID ("uniform" | "adaptive"; default "uniform").
/// Uniform is the production grid: on the real device it meets 0.5% of a
/// 4x-finer reference at a fraction of the adaptive grid's RGF solves
/// (bench/bench_negf_grid.cpp). Throws std::invalid_argument on any other
/// value.
NegfGridKind negf_grid_from_env();

/// Common transport settings.
struct TransportOptions {
  double gamma_contact_eV = 1.0;  ///< wide-band metal broadening
  double mu_source_eV = 0.0;
  double mu_drain_eV = 0.0;
  double kT_eV = 0.02585;
  double eta_eV = 1e-3;          ///< Green's-function broadening
  double energy_step_eV = 2e-3;  ///< charge/current grid spacing
  /// Explicit integration window override: when both are finite they
  /// replace the automatic charge_window(). Modes (and uniform-grid
  /// energies) outside the override are simply not solved — used by tests
  /// to exercise the window-skip paths, and by callers that already know
  /// the support of their integrand.
  double window_lo_eV = std::numeric_limits<double>::quiet_NaN();
  double window_hi_eV = std::numeric_limits<double>::quiet_NaN();
  /// Adaptive-grid controls (ignored in uniform mode). Coarse initial
  /// panel width; 0 means max(80 meV, 8 * energy_step_eV).
  double adaptive_coarse_step_eV = 0.0;
  /// Relative tolerance per error group (current, spectral charge) on the
  /// adaptively integrated totals.
  double adaptive_rel_tol = 1e-4;
};

/// Reusable state for repeated transport solves under the opt-in adaptive
/// grid (the default uniform grid ignores it): the converged adaptive
/// panel edges of each mode warm-start the next solve, so later solves
/// skip re-discovering the refinement structure. Shared across the Gummel
/// iterations of one bias point, and — when the caller chains it through
/// SelfConsistentSolver::solve along a warm-start chain — across
/// neighbouring bias points too (tablegen's column walks). reset() when
/// jumping to an unrelated operating point. Note the Simpson refinement
/// identity: total evaluations are 4 * retired_panels + 1 whatever the
/// starting grid, so warm-starting trades refinement rounds (latency,
/// batch sizes) for none of the evaluation count — its value is keeping
/// the panel structure stable across Gummel iterations, not fewer RGF
/// solves. Warm-starting changes which panels the next solve begins from
/// — results stay within the adaptive tolerance but are not bit-identical
/// to a cold solve (determinism across thread counts is unaffected).
struct TransportContext {
  std::vector<std::vector<double>> mode_edges;  ///< per-mode panel edges
  void reset() { mode_edges.clear(); }
};

/// Solution of one bias point.
struct TransportSolution {
  double current_A = 0.0;
  /// Source/drain continuity witness: the same Landauer integral assembled
  /// from the independently computed drain-side transmissions (mode-space
  /// path only; aliases current_A in the real-space path and when contract
  /// checks are compiled out). The device layer contracts
  /// |current_A - current_drain_A| to be below tolerance in the ballistic
  /// limit.
  double current_drain_A = 0.0;
  /// Electron and hole populations (both >= 0), spin included, resolved on
  /// (column, dimer line); net charge is -e*(electrons - holes).
  /// Dimensions: [num_columns][N].
  std::vector<std::vector<double>> electrons;
  std::vector<std::vector<double>> holes;
  /// Total net electrons in the device: sum(electrons - holes).
  double total_net_electrons = 0.0;
  /// Transmission sampled on the integration grid. Uniform mode: the full
  /// grid, with per-mode contributions summed at every point. Adaptive
  /// mode: the union of the energies each mode actually visited; a point
  /// only carries the modes that sampled it (a sampling diagnostic, not a
  /// complete T(E) curve).
  std::vector<double> energies_eV;
  std::vector<double> transmission;
};

/// Mode-space solve: `potential_eV[c][j]` is the electron potential energy
/// (local mid-gap, eV) at column c and dimer line j; dimensions must be
/// [num_columns][N]. This is the production path for table generation.
TransportSolution solve_mode_space(const gnr::ModeSet& modes,
                                   const std::vector<std::vector<double>>& potential_eV,
                                   const TransportOptions& opts);

/// Same, with caller-owned warm-start state shared across the Gummel
/// iterations of one bias point.
TransportSolution solve_mode_space(const gnr::ModeSet& modes,
                                   const std::vector<std::vector<double>>& potential_eV,
                                   const TransportOptions& opts, TransportContext& ctx);

/// Real-space solve on the atomistic lattice with per-atom onsite energies
/// (eV). Reference path; used for validation and the band-profile figures.
TransportSolution solve_real_space(const gnr::Lattice& lat,
                                   const gnr::TightBindingParams& params,
                                   const std::vector<double>& onsite_eV,
                                   const TransportOptions& opts);

}  // namespace gnrfet::negf
