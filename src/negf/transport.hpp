#pragma once

#include <vector>

#include "gnr/lattice.hpp"
#include "gnr/modespace.hpp"
#include "negf/energygrid.hpp"

/// Ballistic transport drivers: integrate the RGF spectral quantities over
/// energy to produce terminal current and the spatially resolved net mobile
/// charge that feeds back into the Poisson equation. Both paths run the one
/// energy integrator of transport.cpp (grid, chunked ordered reduction,
/// Fermi factors, bipolar charge, current); they differ only in the solver
/// that fills each chunk and in how sites map onto (column, dimer line).
///
/// Bipolar convention: the pz model is particle-hole symmetric, so the
/// local charge-neutrality level equals the local mid-gap energy (the
/// electrostatic potential energy U). States above it count as electrons
/// weighted by f, states below as holes weighted by (1 - f); both injected
/// from the two contacts with their own Fermi levels. Spin degeneracy 2 is
/// included.
namespace gnrfet::negf {

/// Read only by perfbench's record line; delete with the `[benchmark]` refresh.
enum class NegfGridKind { kUniform, kAdaptive };
/// Read only by perfbench's record line; delete with the `[benchmark]` refresh.
inline NegfGridKind negf_grid_from_env() { return NegfGridKind::kUniform; }

/// Wide-band broadening of the metal source and drain contacts [eV].
inline constexpr double kContactGamma_eV = 1.0;
/// Green's-function broadening eta [eV].
inline constexpr double kEta_eV = 1e-3;
/// Default spacing of the uniform charge/current energy grid [eV], for
/// TransportOptions and the device solver (device::SolveOptions) alike.
inline constexpr double kEnergyStep_eV = 2.5e-3;

/// Common transport settings. The source Fermi level is the energy zero and
/// the contacts sit at room temperature (constants::kRoomTemperatureKT_eV).
struct TransportOptions {
  double mu_drain_eV = 0.0;
  double energy_step_eV = kEnergyStep_eV;  ///< charge/current grid spacing
};

/// Solution of one bias point.
struct TransportSolution {
  /// Landauer current from the source-side transmission. An uncoupled
  /// mode-space chain is reciprocal, so the drain-side integral would
  /// repeat it to roundoff; that witness is kept in the scalar test oracle
  /// (tests/support/negf_oracles.hpp), not in production.
  double current_A = 0.0;
  /// Electron and hole populations (both >= 0), spin included, resolved on
  /// (column, dimer line); net charge is -e*(electrons - holes).
  /// Dimensions: [num_columns][N].
  std::vector<std::vector<double>> electrons;
  std::vector<std::vector<double>> holes;
  /// Total net electrons in the device: sum(electrons - holes).
  double total_net_electrons = 0.0;
  /// Transmission on the uniform integration grid, per-mode contributions
  /// summed at every point.
  std::vector<double> energies_eV;
  std::vector<double> transmission;
};

/// Mode-space solve: `potential_eV[c][j]` is the electron potential energy
/// (local mid-gap, eV) at column c and dimer line j; dimensions must be
/// [num_columns][N]. This is the production path for table generation:
/// the uniform energy grid of make_energy_grid, solved per chunk by the
/// batched scalar RGF kernel.
TransportSolution solve_mode_space(const gnr::ModeSet& modes,
                                   const std::vector<std::vector<double>>& potential_eV,
                                   const TransportOptions& opts);

/// Real-space solve on the atomistic lattice with per-atom onsite energies
/// (eV). Reference path; used for validation and the band-profile figures.
TransportSolution solve_real_space(const gnr::Lattice& lat,
                                   const gnr::TightBindingParams& params,
                                   const std::vector<double>& onsite_eV,
                                   const TransportOptions& opts);

}  // namespace gnrfet::negf
