#pragma once

#include "device/geometry.hpp"
#include "negf/transport.hpp"

/// Self-consistent NEGF-Poisson solution of one bias point (the Gummel
/// outer loop of Sec. 2 of the paper).
namespace gnrfet::device {

struct BiasPoint {
  double vg = 0.0;  ///< gate voltage [V]
  double vd = 0.0;  ///< drain voltage [V] (source grounded)
};

struct SolveOptions {
  double energy_step_eV = 2.5e-3;
  double eta_eV = 1e-3;
  double kT_eV = 0.02585;
  double gummel_tolerance_V = 1.5e-3;  ///< max potential change on the GNR
  int max_gummel_iterations = 40;
};

struct DeviceSolution {
  bool converged = false;  ///< false: hit max_gummel_iterations (gummel_unconverged)
  int iterations = 0;
  double current_A = 0.0;
  /// Total net mobile electrons in the channel; channel charge is
  /// Q = -e * net. |Q| feeds the circuit-level capacitance extraction.
  double net_electrons = 0.0;
  /// Full-grid electrostatic potential [V].
  std::vector<double> phi_full;
  /// Local mid-gap energy per column, averaged over the ribbon width [eV]
  /// (the conduction band edge is this + Eg/2): the Fig. 5(a) profile.
  std::vector<double> midgap_profile_eV;
  std::vector<double> column_x_nm;
};

class SelfConsistentSolver {
 public:
  explicit SelfConsistentSolver(const DeviceGeometry& geometry, const SolveOptions& opts = {});

  /// Solve one bias point. `warm_start` (may be nullptr) provides the
  /// initial potential, typically the solution of a neighbouring bias.
  /// `transport_ctx` (may be nullptr) is caller-owned energy-grid state
  /// used only under the opt-in GNRFET_NEGF_GRID=adaptive; the default
  /// uniform grid ignores it entirely. It is threaded through every
  /// transport solve of this bias point: on entry it seeds the adaptive
  /// panel edges (e.g. from the previous bias on the same warm-start
  /// chain), on exit it holds the converged edges for the next point.
  /// Seeding changes results only within the adaptive tolerance.
  ///
  /// A solve that reaches max_gummel_iterations returns its last iterate
  /// with `converged == false` and counts one `gummel_unconverged`; each
  /// nonlinear Poisson solve inside that runs out of Newton iterations
  /// counts one `poisson_newton_unconverged` (common/metrics.hpp).
  DeviceSolution solve(const BiasPoint& bias, const DeviceSolution* warm_start = nullptr,
                       negf::TransportContext* transport_ctx = nullptr) const;

  const SolveOptions& options() const { return opts_; }

 private:
  const DeviceGeometry& geo_;
  SolveOptions opts_;
};

}  // namespace gnrfet::device
