#include "device/selfconsistent.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "poisson/solver.hpp"

namespace gnrfet::device {

SelfConsistentSolver::SelfConsistentSolver(const DeviceGeometry& geometry,
                                           const SolveOptions& opts)
    : geo_(geometry), opts_(opts) {}

DeviceSolution SelfConsistentSolver::solve(const BiasPoint& bias,
                                           const DeviceSolution* warm_start,
                                           negf::TransportContext* transport_ctx) const {
  trace::Span span("device", "solve_bias_point");
  GNRFET_REQUIRE("device", "finite-bias", std::isfinite(bias.vg) && std::isfinite(bias.vd),
                 strings::format("bias point (vg = %g, vd = %g) contains NaN/inf", bias.vg,
                                 bias.vd));
  const auto& dom = geo_.domain();
  const auto& grid = dom.spec();
  const auto& lat = geo_.lattice();
  const size_t ncol = lat.column_x_nm().size();
  const size_t nlines = static_cast<size_t>(lat.n_index());

  const std::vector<double> volts = geo_.electrode_voltages(0.0, bias.vd, bias.vg);

  // One reusable Poisson solver for the whole bias point: the Jacobian
  // copy, preconditioner factorization, and PCG workspace persist across
  // every Newton iteration of every Gummel iteration below. Local to this
  // call because solve() runs concurrently on pool threads.
  poisson::PoissonSolver psolver(geo_.assembly());

  // Initial potential: warm start or the charge-free (Laplace + impurity)
  // solution. A warm start whose potential was solved on a different grid
  // is a caller bug (e.g. mixing solutions across geometries) — reject it
  // instead of silently discarding it and paying the cold-start cost.
  std::vector<double> phi;
  if (warm_start) {
    GNRFET_REQUIRE("device", "warm-start-grid-match",
                   warm_start->phi_full.size() == grid.num_nodes(),
                   strings::format("warm_start->phi_full has %zu nodes, grid has %zu",
                                   warm_start->phi_full.size(), grid.num_nodes()));
    phi = warm_start->phi_full;
  } else {
    phi = psolver.solve_linear(volts, geo_.impurity_charge());
  }

  negf::TransportOptions topt;
  topt.gamma_contact_eV = geo_.spec().contact_gamma_eV;
  topt.mu_source_eV = 0.0;
  topt.mu_drain_eV = -bias.vd;
  topt.kT_eV = opts_.kT_eV;
  topt.eta_eV = opts_.eta_eV;
  topt.energy_step_eV = opts_.energy_step_eV;

  DeviceSolution sol;
  std::vector<std::vector<double>> u(ncol, std::vector<double>(nlines, 0.0));
  std::vector<double> n_nodes(grid.num_nodes(), 0.0), p_nodes(grid.num_nodes(), 0.0);
  negf::TransportSolution transport;

  // The ribbon sample points are fixed for the whole bias point, so the
  // trilinear stencils behind every gather (potential), deposit (charge),
  // and convergence probe below are hoisted out of the Gummel loop.
  std::vector<poisson::Domain::CicStencil> ribbon(ncol * nlines);
  for (size_t c = 0; c < ncol; ++c) {
    for (size_t j = 0; j < nlines; ++j) {
      ribbon[c * nlines + j] =
          dom.stencil(geo_.column_x(c), geo_.line_y(static_cast<int>(j)), 0.0);
    }
  }

  // Adaptive-grid warm start shared by the Gummel iterations of this bias
  // point: each transport solve reuses the previous converged panel edges.
  // A caller-owned context extends the reuse across bias points on the
  // same warm-start chain (table columns).
  negf::TransportContext local_ctx;
  negf::TransportContext& tctx = transport_ctx != nullptr ? *transport_ctx : local_ctx;

  poisson::NonlinearOptions popt;
  popt.thermal_voltage_V = opts_.kT_eV;

  for (int it = 0; it < opts_.max_gummel_iterations; ++it) {
    // Gather the electron potential energy on the ribbon: U = -phi [eV].
    for (size_t c = 0; c < ncol; ++c) {
      for (size_t j = 0; j < nlines; ++j) {
        u[c][j] = -dom.gather(phi, ribbon[c * nlines + j]);
      }
    }
    transport = negf::solve_mode_space(geo_.modes(), u, topt, tctx);

    // Deposit electron/hole populations onto the grid.
    std::fill(n_nodes.begin(), n_nodes.end(), 0.0);
    std::fill(p_nodes.begin(), p_nodes.end(), 0.0);
    for (size_t c = 0; c < ncol; ++c) {
      for (size_t j = 0; j < nlines; ++j) {
        const poisson::Domain::CicStencil& st = ribbon[c * nlines + j];
        if (transport.electrons[c][j] > 0.0) {
          dom.deposit(st, transport.electrons[c][j], n_nodes);
        }
        if (transport.holes[c][j] > 0.0) {
          dom.deposit(st, transport.holes[c][j], p_nodes);
        }
      }
    }

    const auto pres =
        psolver.solve_nonlinear(volts, n_nodes, p_nodes, geo_.impurity_charge(), phi, phi, popt);
    // Convergence metric: potential change on the ribbon plane.
    double max_change = 0.0;
    for (size_t c = 0; c < ncol; ++c) {
      for (size_t j = 0; j < nlines; ++j) {
        const poisson::Domain::CicStencil& st = ribbon[c * nlines + j];
        const double before = dom.gather(phi, st);
        const double after = dom.gather(pres.phi_full, st);
        max_change = std::max(max_change, std::abs(after - before));
      }
    }
    phi = pres.phi_full;
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
  for (size_t c = 0; c < ncol; ++c) {
    for (size_t j = 0; j < nlines; ++j) {
      u[c][j] = -dom.gather(phi, ribbon[c * nlines + j]);
    }
  }
  transport = negf::solve_mode_space(geo_.modes(), u, topt, tctx);

  // Ballistic source/drain current continuity: the drain-side Landauer
  // integral (independent right-connected RGF sweeps) must agree with the
  // source-side one. A mismatch means the two contact solutions see
  // different devices — the Zhao-Guo failure mode where edge effects
  // decouple the mode-space from the real-space picture.
  GNRFET_ENSURE("device", "source-drain-current-continuity",
                std::abs(transport.current_A - transport.current_drain_A) <=
                    1e-6 * (std::abs(transport.current_A) +
                            std::abs(transport.current_drain_A)) +
                        1e-15,
                strings::format("I_source = %.12g A vs I_drain = %.12g A at vg = %g, vd = %g",
                                transport.current_A, transport.current_drain_A, bias.vg,
                                bias.vd));
  sol.current_A = transport.current_A;
  sol.net_electrons = transport.total_net_electrons;
  sol.phi_full = std::move(phi);
  sol.midgap_profile_eV.resize(ncol);
  sol.column_x_nm.resize(ncol);
  for (size_t c = 0; c < ncol; ++c) {
    double s = 0.0;
    for (size_t j = 0; j < nlines; ++j) s += u[c][j];
    sol.midgap_profile_eV[c] = s / static_cast<double>(nlines);
    sol.column_x_nm[c] = lat.column_x_nm()[c];
  }
  return sol;
}

}  // namespace gnrfet::device
