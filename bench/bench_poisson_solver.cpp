/// Poisson solver benchmark, two sections.
///
/// Full-grid PCG: one fixed assembly (a MOS-like gate stack around a
/// channel plane) and one fixed set of charge/bias right-hand sides, solved
/// with the production IC(0) preconditioner and the Jacobi reference at the
/// base grid and a 2x-refined grid: one {preconditioner, grid_scale,
/// iterations, seconds} record per line.
///
/// Real device: the capacitance-matrix build of the N = 12 paper device
/// (one {capacitance_build_s, charge_nodes, threads} record) and four real
/// Newton systems solved by the reduced path and the full-grid oracle (one
/// {device_system, max_dphi_V, reduced_newton, oracle_newton,
/// reduced_ms_per_newton, oracle_ms_per_newton} record each).
///
/// Writes bench_out/BENCH_poisson.json plus a CSV mirror of the PCG rows.
/// tools/ci_checks.sh perf-smoke asserts IC(0) needs fewer PCG iterations
/// than Jacobi at both grid scales, and that the reduced solve matches the
/// oracle on S to 1e-8 V with the same Newton count.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "device/geometry.hpp"
#include "device/selfconsistent.hpp"
#include "poisson/assembly.hpp"
#include "poisson/capacitance.hpp"
#include "poisson/grid.hpp"
#include "poisson/solver.hpp"

using namespace gnrfet;

namespace {

struct Workload {
  poisson::GridSpec grid;
  std::vector<std::vector<double>> fixed_sets;  ///< fixed charge per case
  std::vector<std::vector<double>> n0_sets;     ///< electron population per case
  std::vector<double> p0, zero;
};

Workload build_workload(const poisson::Domain& domain, const poisson::GridSpec& g) {
  Workload w;
  w.grid = g;
  w.zero.assign(g.num_nodes(), 0.0);
  w.p0.assign(g.num_nodes(), 0.0);
  // Charge cases: a sheet of channel electrons at three densities plus a
  // localized impurity, mirroring what the Gummel loop feeds Poisson.
  for (const double amp : {0.2, 0.6, 1.2}) {
    std::vector<double> fixed(g.num_nodes(), 0.0);
    std::vector<double> n0(g.num_nodes(), 0.0);
    domain.deposit_charge(g.x(g.nx / 3), g.y(g.ny / 2), g.z(g.nz / 2), 1.0, fixed);
    for (size_t i = 2; i + 2 < g.nx; ++i) {
      domain.deposit_charge(g.x(i), g.y(g.ny / 2), g.z(g.nz / 2), amp / double(g.nx), n0);
    }
    w.fixed_sets.push_back(std::move(fixed));
    w.n0_sets.push_back(std::move(n0));
  }
  return w;
}

}  // namespace

int main() {
  // ~50k free nodes at scale 1 by default — the fig2 device grid scale —
  // and ~400k at scale 2. Shrink via env for the CI smoke run.
  const size_t base_nx =
      static_cast<size_t>(common::env::get_positive_int("GNRFET_BENCH_POISSON_NX", 48));
  const size_t base_ny =
      static_cast<size_t>(common::env::get_positive_int("GNRFET_BENCH_POISSON_NY", 32));
  const size_t base_nz =
      static_cast<size_t>(common::env::get_positive_int("GNRFET_BENCH_POISSON_NZ", 32));
  const int repeats = common::env::get_positive_int("GNRFET_BENCH_POISSON_REPEATS", 3);

  bench::banner("Poisson PCG preconditioners (fixed assembly, fixed RHS set)");
  bench::output_path("poisson_solver");  // ensures bench_out/ exists
  std::ofstream json("bench_out/BENCH_poisson.json");
  json.precision(17);
  csv::Table table({"preconditioner_id", "grid_scale", "pcg_iterations", "precond_setups",
                    "seconds"});
  table.set_meta("preconditioner_id", "0 = jacobi, 2 = ic0");

  for (const size_t scale : {size_t{1}, size_t{2}}) {
    poisson::GridSpec g;
    g.nx = base_nx * scale;
    g.ny = base_ny * scale;
    g.nz = base_nz * scale;
    // Same physical box at every scale: refine the spacing, not the extent,
    // so the scale-2 rows measure mesh refinement of one problem.
    g.dx = g.dy = g.dz = 0.25 / double(scale);

    poisson::Domain domain(g);
    domain.paint_permittivity({-1.0, 1e9, -1.0, 1e9, -1.0, 1e9}, 3.9);
    // Top/bottom gate planes: Dirichlet boundaries as in the device stack.
    domain.add_electrode({-1.0, 1e9, -1.0, 1e9, -0.001, 0.001});
    domain.add_electrode({-1.0, 1e9, -1.0, 1e9, g.z_max() - 0.001, g.z_max() + 0.001});
    const poisson::Assembly assembly(domain);
    const Workload w = build_workload(domain, g);

    std::printf("grid %zux%zux%zu (scale %zu), %zu free nodes, %zu charge cases x %d repeats\n",
                g.nx, g.ny, g.nz, scale, assembly.num_free(), w.fixed_sets.size(), repeats);

    for (const auto kind : {linalg::PreconditionerKind::kJacobi, linalg::PreconditionerKind::kIc0}) {
      const char* pc = linalg::to_string(kind);
      const auto before = metrics::snapshot();
      bench::PhaseTimer timer("poisson_solver", pc);
      for (int rep = 0; rep < repeats; ++rep) {
        poisson::PoissonSolver solver(assembly, kind);
        for (size_t c = 0; c < w.fixed_sets.size(); ++c) {
          const auto phi_lin = solver.solve_linear({0.0, 0.4}, w.fixed_sets[c]);
          const auto res = solver.solve_nonlinear({0.0, 0.4}, w.n0_sets[c], w.p0,
                                                  w.fixed_sets[c], phi_lin, phi_lin);
          if (!res.converged) {
            std::fprintf(stderr, "poisson bench: %s scale %zu case %zu did not converge\n", pc,
                         scale, c);
            return 1;
          }
        }
      }
      const double seconds = timer.stop();
      const auto after = metrics::snapshot();
      const auto iters =
          after.counters[static_cast<size_t>(metrics::Counter::kPcgIterations)] -
          before.counters[static_cast<size_t>(metrics::Counter::kPcgIterations)];
      const auto setups =
          after.counters[static_cast<size_t>(metrics::Counter::kPcgPrecondSetups)] -
          before.counters[static_cast<size_t>(metrics::Counter::kPcgPrecondSetups)];
      std::printf("%-6s (scale %zu): %6llu PCG iterations, %4llu precond setups, %.3f s\n", pc,
                  scale, static_cast<unsigned long long>(iters),
                  static_cast<unsigned long long>(setups), seconds);
      json << "{\"preconditioner\":\"" << pc << "\",\"grid_scale\":" << scale
           << ",\"iterations\":" << iters << ",\"seconds\":" << seconds << "}\n";
      const double pc_id = kind == linalg::PreconditionerKind::kIc0 ? 2.0 : 0.0;
      table.add_row({pc_id, double(scale), double(iters), double(setups), seconds});
    }
  }

  // Real device: the Newton systems of the first two Gummel iterations from
  // the charge-free start of the N = 12 paper device at an on-state and a
  // mid-plane bias point, solved by the production capacitance-matrix path
  // (CapacitanceSolver, on the charge nodes S) and by the full-grid oracle
  // (PoissonSolver::solve_nonlinear). CI asserts max |dphi_S| <= 1e-8 V and
  // equal Newton counts on every system.
  const device::DeviceGeometry geometry{device::DeviceSpec{}};
  bench::PhaseTimer build_timer("poisson_solver", "capacitance_build");
  const device::SelfConsistentSolver solver(geometry);
  const double build_s = build_timer.stop();
  const poisson::CapacitanceSolver& cap = solver.capacitance();
  std::printf("capacitance build: %zu charge nodes, %.3f s\n", cap.size(), build_s);
  json << "{\"capacitance_build_s\":" << build_s << ",\"charge_nodes\":" << cap.size()
       << ",\"threads\":" << par::thread_count() << "}\n";
  const size_t nodes = geometry.domain().spec().num_nodes();
  const auto on_s = [&](const std::vector<double>& full) {
    std::vector<double> out(cap.size());
    for (size_t k = 0; k < cap.size(); ++k) out[k] = full[cap.nodes()[k]];
    return out;
  };
  const auto on_grid = [&](const std::vector<double>& values) {
    std::vector<double> full(nodes, 0.0);
    for (size_t k = 0; k < cap.size(); ++k) full[cap.nodes()[k]] = values[k];
    return full;
  };
  poisson::NonlinearOptions popt;
  popt.thermal_voltage_V = solver.options().kT_eV;
  poisson::PoissonSolver oracle(geometry.assembly(), linalg::PreconditionerKind::kIc0);
  for (const device::BiasPoint bias : {device::BiasPoint{0.75, 0.5}, device::BiasPoint{0.4, 0.25}}) {
    const std::vector<double> volts = geometry.electrode_voltages(0.0, bias.vd, bias.vg);
    std::vector<double> phi_full = oracle.solve_linear(volts, geometry.impurity_charge());
    for (int gummel = 0; gummel < 2; ++gummel) {
      const std::vector<double> phi_s = on_s(phi_full);
      const device::ChargePopulations pop = solver.charge_populations(bias, phi_s);
      double t0 = trace::now_us();
      const poisson::ReducedResult reduced =
          cap.solve_nonlinear(volts, pop.electrons, pop.holes, phi_s, phi_s, popt);
      const double reduced_ms = (trace::now_us() - t0) / 1e3;
      t0 = trace::now_us();
      poisson::NonlinearResult full =
          oracle.solve_nonlinear(volts, on_grid(pop.electrons), on_grid(pop.holes),
                                 geometry.impurity_charge(), phi_full, phi_full, popt);
      const double oracle_ms = (trace::now_us() - t0) / 1e3;
      if (!reduced.converged || !full.converged) {
        std::fprintf(stderr, "poisson bench: device system did not converge\n");
        return 1;
      }
      double max_dphi = 0.0;
      for (size_t k = 0; k < cap.size(); ++k) {
        max_dphi = std::max(max_dphi, std::abs(reduced.phi[k] - full.phi_full[cap.nodes()[k]]));
      }
      const double reduced_per_newton = reduced_ms / reduced.iterations;
      const double oracle_per_newton = oracle_ms / full.iterations;
      std::printf("device VG %.2f VD %.2f Gummel %d: max |dphi_S| = %.3g V, Newton %d (reduced) "
                  "vs %d (full grid), %.2f vs %.2f ms per Newton\n",
                  bias.vg, bias.vd, gummel, max_dphi, reduced.iterations, full.iterations,
                  reduced_per_newton, oracle_per_newton);
      char label[64];
      std::snprintf(label, sizeof label, "vg%.2f_vd%.2f_gummel%d", bias.vg, bias.vd, gummel);
      json << "{\"device_system\":\"" << label << "\",\"max_dphi_V\":" << max_dphi << ",\"reduced_newton\":" << reduced.iterations
           << ",\"oracle_newton\":" << full.iterations
           << ",\"reduced_ms_per_newton\":" << reduced_per_newton
           << ",\"oracle_ms_per_newton\":" << oracle_per_newton << "}\n";
      phi_full = std::move(full.phi_full);
    }
  }

  json.close();
  std::printf("[json] bench_out/BENCH_poisson.json\n");
  bench::save_csv(table, "poisson_solver");
  return 0;
}
