#pragma once

#include "device/geometry.hpp"
#include "negf/transport.hpp"
#include "poisson/capacitance.hpp"

/// Self-consistent NEGF-Poisson solution of one bias point (the Gummel
/// outer loop of Sec. 2 of the paper).
namespace gnrfet::device {

struct BiasPoint {
  double vg = 0.0;  ///< gate voltage [V]
  double vd = 0.0;  ///< drain voltage [V] (source grounded)
};

/// Gummel-loop settings. The transport runs at negf::kEta_eV and room
/// temperature (constants::kRoomTemperatureKT_eV).
struct SolveOptions {
  double energy_step_eV = negf::kEnergyStep_eV;
  // Test seam: the tests' small devices converge to a looser tolerance.
  double gummel_tolerance_V = 1.5e-3;  ///< max potential change on the GNR
  // Test seam: the non-convergence tests cap the loop.
  int max_gummel_iterations = 40;
};

struct DeviceSolution {
  bool converged = false;  ///< false: hit max_gummel_iterations (gummel_unconverged)
  int iterations = 0;
  double current_A = 0.0;
  /// Total net mobile electrons in the channel; channel charge is
  /// Q = -e * net. |Q| feeds the circuit-level capacitance extraction.
  double net_electrons = 0.0;
  /// Electrostatic potential [V] on the charge nodes S, in
  /// SelfConsistentSolver::capacitance().nodes() order: all a warm start
  /// needs (the rest of the grid follows from S and the electrodes).
  std::vector<double> phi_charge_nodes;
  /// Local mid-gap energy per column, averaged over the ribbon width [eV]
  /// (the conduction band edge is this + Eg/2): the Fig. 5(a) profile.
  std::vector<double> midgap_profile_eV;
  std::vector<double> column_x_nm;
};

/// NEGF electron and hole populations deposited on the charge nodes S
/// (units of e, capacitance().nodes() order).
struct ChargePopulations {
  std::vector<double> electrons;
  std::vector<double> holes;
};

/// The Poisson half of each Gummel iteration runs on the capacitance
/// matrix of the ribbon's charge nodes (poisson/capacitance.hpp). The
/// matrix is built once per geometry in the process: the first solver of a
/// DeviceSpec::geometry_key() pays one IC(0)-PCG solve per charge node and
/// electrode (500 for the N = 12 device), and every later solver of that
/// geometry, whatever its impurities, shares it from a process-wide,
/// thread-safe memo. Each constructor still pays one PCG solve of its own:
/// the response to its fixed (impurity) charge.
class SelfConsistentSolver {
 public:
  explicit SelfConsistentSolver(const DeviceGeometry& geometry, const SolveOptions& opts = {});

  /// Solve one bias point. `warm_start` (may be nullptr) provides the
  /// initial potential, typically the solution of a neighbouring bias.
  ///
  /// A solve that reaches max_gummel_iterations returns its last iterate
  /// with `converged == false` and counts one `gummel_unconverged`; each
  /// nonlinear Poisson solve inside that runs out of Newton iterations
  /// counts one `poisson_newton_unconverged` (common/metrics.hpp).
  DeviceSolution solve(const BiasPoint& bias, const DeviceSolution* warm_start = nullptr) const;

  /// The reduced Poisson solver of this geometry.
  // Test seam: the capacitance tests pose the Gummel loop's own Newton systems to it.
  const poisson::CapacitanceSolver& capacitance() const { return capacitance_; }

  /// The charge one Gummel iteration hands to Poisson when the potential
  /// on S is `phi_s`: a transport solve at `bias` on that potential,
  /// deposited on S. Exposed so the capacitance tests can pose the real
  /// Newton systems to both the reduced solver and the full-grid oracle.
  // Test seam: the charge one Gummel iteration computes, for the oracle comparison.
  ChargePopulations charge_populations(const BiasPoint& bias,
                                       const std::vector<double>& phi_s) const;

 private:
  /// Cloud-in-cell stencil of one ribbon sample point over the local field
  /// [phi on S (ns entries), electrode voltages]: slot < ns is a charge
  /// node, slot >= ns electrode slot - ns. Zero-weight free nodes outside
  /// S point at slot 0 with weight 0.
  struct RibbonStencil {
    size_t slot[8];
    double weight[8];
  };

  SelfConsistentSolver(const DeviceGeometry& geometry, const SolveOptions& opts,
                       const std::vector<poisson::Domain::CicStencil>& stencils);

  negf::TransportOptions transport_options(const BiasPoint& bias) const;
  /// u[c][j] = -phi at ribbon sample (c, j): the electron potential energy [eV].
  void ribbon_energy(const std::vector<double>& phi_s, const std::vector<double>& volts,
                     std::vector<std::vector<double>>& u) const;
  double ribbon_potential(const std::vector<double>& phi_s, const std::vector<double>& volts,
                          const RibbonStencil& st) const;
  void deposit(const negf::TransportSolution& transport, ChargePopulations& out) const;

  const DeviceGeometry& geo_;
  SolveOptions opts_;
  size_t ncol_;
  size_t nlines_;
  poisson::CapacitanceSolver capacitance_;
  std::vector<RibbonStencil> ribbon_;  ///< [c * nlines + j]
};

}  // namespace gnrfet::device
