/// Poisson linear-solver microbenchmark: one fixed assembly (a MOS-like
/// gate stack around a channel plane) and one fixed set of charge/bias
/// right-hand sides, solved with the production IC(0) preconditioner and
/// the Jacobi reference at the base grid and a 2x-refined grid. Emits
/// bench_out/BENCH_poisson.json with one {preconditioner, grid_scale,
/// iterations, seconds} record per line, plus two device rows (ic0 vs
/// jacobi current on a small self-consistent device) and a CSV mirror.
/// tools/ci_checks.sh perf-smoke asserts IC(0) needs fewer PCG iterations
/// than Jacobi at both grid scales, and that switching the device stack to
/// jacobi leaves the terminal current and Gummel count unchanged.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "device/geometry.hpp"
#include "device/selfconsistent.hpp"
#include "poisson/assembly.hpp"
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

    for (const char* pc : {"jacobi", "ic0"}) {
      const auto kind = linalg::preconditioner_kind_from_string(pc);
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

  // fig2 proxy: one on-state bias point of a small self-consistent device
  // under ic0 vs jacobi. The preconditioner must not move the physics — CI
  // asserts the currents agree to 1e-10 relative with identical Gummel
  // counts. The uniform energy grid keeps the transport integral a smooth
  // function of the potential, so the comparison measures only the Poisson
  // solve (adaptive panel thresholds could flip on 1e-12 perturbations).
  ::setenv("GNRFET_NEGF_GRID", "uniform", 1);
  device::DeviceSpec spec;
  spec.channel_length_nm = 6.0;
  spec.grid_step_nm = 0.35;
  spec.lateral_margin_nm = 2.0;
  spec.num_modes = 2;
  device::SolveOptions sopts;
  sopts.energy_step_eV = 5e-3;
  for (const char* pc : {"ic0", "jacobi"}) {
    ::setenv("GNRFET_POISSON_PC", pc, 1);
    bench::PhaseTimer timer("poisson_solver_device", pc);
    const device::DeviceGeometry geometry(spec);
    const device::SelfConsistentSolver solver(geometry, sopts);
    const auto sol = solver.solve({0.4, 0.3});
    const double seconds = timer.stop();
    std::printf("device %-4s: I = %.12g A, %d Gummel iterations, %.3f s\n", pc, sol.current_A,
                sol.iterations, seconds);
    json << "{\"device_pc\":\"" << pc << "\",\"current_A\":" << sol.current_A
         << ",\"gummel_iterations\":" << sol.iterations << ",\"seconds\":" << seconds << "}\n";
  }
  ::unsetenv("GNRFET_POISSON_PC");
  ::unsetenv("GNRFET_NEGF_GRID");

  json.close();
  std::printf("[json] bench_out/BENCH_poisson.json\n");
  bench::save_csv(table, "poisson_solver");
  return 0;
}
