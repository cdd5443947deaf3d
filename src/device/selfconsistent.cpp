#include "device/selfconsistent.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/annotations.hpp"
#include "common/contracts.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"

namespace gnrfet::device {

namespace {

/// The capacitance matrix of `geometry`'s grid, electrodes and ribbon,
/// built on the first request for its DeviceSpec::geometry_key() and then
/// served to every later solver in the process. Builds run under the one
/// mutex, so concurrent first uses of a geometry build it once; a build
/// that throws stores nothing.
std::shared_ptr<const poisson::CapacitanceMatrix> shared_capacitance(
    const DeviceGeometry& geometry, const std::vector<poisson::Domain::CicStencil>& stencils) {
  static common::Mutex mu;
  static std::map<std::string, std::shared_ptr<const poisson::CapacitanceMatrix>> matrices
      GNRFET_GUARDED_BY(mu);
  const std::string key = geometry.spec().geometry_key();
  common::MutexLock lk(mu);
  const auto it = matrices.find(key);
  if (it != matrices.end()) return it->second;
  auto built = std::make_shared<const poisson::CapacitanceMatrix>(geometry.assembly(), stencils);
  matrices.emplace(key, built);
  return built;
}

}  // namespace

SelfConsistentSolver::SelfConsistentSolver(const DeviceGeometry& geometry,
                                           const SolveOptions& opts)
    : SelfConsistentSolver(geometry, opts, geometry.ribbon_stencils()) {}

SelfConsistentSolver::SelfConsistentSolver(
    const DeviceGeometry& geometry, const SolveOptions& opts,
    const std::vector<poisson::Domain::CicStencil>& stencils)
    : geo_(geometry),
      opts_(opts),
      ncol_(geometry.lattice().column_x_nm().size()),
      nlines_(static_cast<size_t>(geometry.lattice().n_index())),
      capacitance_(shared_capacitance(geometry, stencils), geometry.assembly(),
                   geometry.impurity_charge()),
      ribbon_(stencils.size()) {
  // Re-address each stencil into the local field [phi_S, electrode
  // voltages] that the Gummel loop works on.
  const size_t ns = capacitance_.size();
  const poisson::Domain& dom = geo_.domain();
  for (size_t i = 0; i < stencils.size(); ++i) {
    for (size_t p = 0; p < 8; ++p) {
      const size_t node = stencils[i].node[p];
      const size_t s = capacitance_.index_of(node);
      const int electrode = dom.electrode_at(node);
      RibbonStencil& st = ribbon_[i];
      st.weight[p] = stencils[i].weight[p];
      if (s != std::numeric_limits<size_t>::max()) {
        st.slot[p] = s;
      } else if (electrode >= 0) {
        st.slot[p] = ns + static_cast<size_t>(electrode);
      } else {
        st.slot[p] = 0;  // a free node outside S carries zero weight
        st.weight[p] = 0.0;
      }
    }
  }
}

negf::TransportOptions SelfConsistentSolver::transport_options(const BiasPoint& bias) const {
  negf::TransportOptions topt;
  topt.mu_drain_eV = -bias.vd;
  topt.energy_step_eV = opts_.energy_step_eV;
  return topt;
}

double SelfConsistentSolver::ribbon_potential(const std::vector<double>& phi_s,
                                              const std::vector<double>& volts,
                                              const RibbonStencil& st) const {
  const size_t ns = phi_s.size();
  double v = 0.0;
  // Trilinear interpolation over the stencil, in ascending p.
  for (size_t p = 0; p < 8; ++p) {
    const size_t s = st.slot[p];
    v += st.weight[p] * (s < ns ? phi_s[s] : volts[s - ns]);
  }
  return v;
}

void SelfConsistentSolver::ribbon_energy(const std::vector<double>& phi_s,
                                         const std::vector<double>& volts,
                                         std::vector<std::vector<double>>& u) const {
  for (size_t c = 0; c < ncol_; ++c) {
    for (size_t j = 0; j < nlines_; ++j) {
      u[c][j] = -ribbon_potential(phi_s, volts, ribbon_[c * nlines_ + j]);
    }
  }
}

void SelfConsistentSolver::deposit(const negf::TransportSolution& transport,
                                   ChargePopulations& out) const {
  // Charge that lands on an electrode node is absorbed by the Dirichlet
  // boundary, as in the full-grid assembly.
  const size_t ns = capacitance_.size();
  out.electrons.assign(ns, 0.0);
  out.holes.assign(ns, 0.0);
  const auto add = [ns](const RibbonStencil& st, double charge, std::vector<double>& rho) {
    for (size_t p = 0; p < 8; ++p) {
      if (st.slot[p] < ns) rho[st.slot[p]] += st.weight[p] * charge;
    }
  };
  for (size_t c = 0; c < ncol_; ++c) {
    for (size_t j = 0; j < nlines_; ++j) {
      const RibbonStencil& st = ribbon_[c * nlines_ + j];
      if (transport.electrons[c][j] > 0.0) add(st, transport.electrons[c][j], out.electrons);
      if (transport.holes[c][j] > 0.0) add(st, transport.holes[c][j], out.holes);
    }
  }
}

ChargePopulations SelfConsistentSolver::charge_populations(
    const BiasPoint& bias, const std::vector<double>& phi_s) const {
  if (phi_s.size() != capacitance_.size()) {
    throw std::invalid_argument("charge_populations: phi_s is not sized to the charge nodes");
  }
  std::vector<std::vector<double>> u(ncol_, std::vector<double>(nlines_, 0.0));
  ribbon_energy(phi_s, geo_.electrode_voltages(0.0, bias.vd, bias.vg), u);
  ChargePopulations out;
  deposit(negf::solve_mode_space(geo_.modes(), u, transport_options(bias)), out);
  return out;
}

DeviceSolution SelfConsistentSolver::solve(const BiasPoint& bias,
                                           const DeviceSolution* warm_start) const {
  trace::Span span("device", "solve_bias_point");
  GNRFET_REQUIRE("device", "finite-bias", std::isfinite(bias.vg) && std::isfinite(bias.vd),
                 strings::format("bias point (vg = %g, vd = %g) contains NaN/inf", bias.vg,
                                 bias.vd));
  const std::vector<double> volts = geo_.electrode_voltages(0.0, bias.vd, bias.vg);
  const size_t ns = capacitance_.size();

  // Initial potential on S: warm start or the charge-free (Laplace +
  // impurity) solution. A warm start solved on different charge nodes is a
  // caller bug (e.g. mixing solutions across geometries) — reject it
  // instead of silently discarding it and paying the cold-start cost.
  std::vector<double> phi;
  if (warm_start) {
    GNRFET_REQUIRE("device", "warm-start-grid-match", warm_start->phi_charge_nodes.size() == ns,
                   strings::format("warm_start->phi_charge_nodes has %zu nodes, the "
                                   "geometry has %zu charge nodes",
                                   warm_start->phi_charge_nodes.size(), ns));
    phi = warm_start->phi_charge_nodes;
  } else {
    phi = capacitance_.base_potential(volts);
  }

  const negf::TransportOptions topt = transport_options(bias);
  DeviceSolution sol;
  std::vector<std::vector<double>> u(ncol_, std::vector<double>(nlines_, 0.0));
  ChargePopulations charge;
  negf::TransportSolution transport;

  for (int it = 0; it < opts_.max_gummel_iterations; ++it) {
    ribbon_energy(phi, volts, u);
    transport = negf::solve_mode_space(geo_.modes(), u, topt);
    deposit(transport, charge);

    const poisson::ReducedResult pres =
        capacitance_.solve_nonlinear(volts, charge.electrons, charge.holes, phi, phi);
    // Convergence metric: potential change on the ribbon plane.
    double max_change = 0.0;
    for (const RibbonStencil& st : ribbon_) {
      const double before = ribbon_potential(phi, volts, st);
      const double after = ribbon_potential(pres.phi, volts, st);
      max_change = std::max(max_change, std::abs(after - before));
    }
    phi = pres.phi;
    sol.iterations = it + 1;
    if (max_change < opts_.gummel_tolerance_V) {
      sol.converged = true;
      break;
    }
  }
  metrics::add(metrics::Counter::kGummelIterations, static_cast<uint64_t>(sol.iterations));
  if (!sol.converged) metrics::add(metrics::Counter::kGummelUnconverged);
  metrics::observe(metrics::Histogram::kGummelIterationsPerBias,
                   static_cast<double>(sol.iterations));

  // Final transport pass on the converged potential.
  ribbon_energy(phi, volts, u);
  transport = negf::solve_mode_space(geo_.modes(), u, topt);

  sol.current_A = transport.current_A;
  sol.net_electrons = transport.total_net_electrons;
  sol.phi_charge_nodes = std::move(phi);
  sol.midgap_profile_eV.resize(ncol_);
  sol.column_x_nm.resize(ncol_);
  for (size_t c = 0; c < ncol_; ++c) {
    double s = 0.0;
    for (size_t j = 0; j < nlines_; ++j) s += u[c][j];
    sol.midgap_profile_eV[c] = s / static_cast<double>(nlines_);
    sol.column_x_nm[c] = geo_.lattice().column_x_nm()[c];
  }
  return sol;
}

}  // namespace gnrfet::device
