#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "linalg/pcg.hpp"
#include "linalg/preconditioner.hpp"
#include "poisson/assembly.hpp"
#include "poisson/grid.hpp"
#include "poisson/multigrid.hpp"
#include "poisson/solver.hpp"
#include "env_guard.hpp"

namespace {

using namespace gnrfet;
using tests::EnvGuard;
using linalg::PreconditionerKind;

uint64_t fnv1a(const std::vector<double>& v) {
  uint64_t h = 1469598103934665603ull;
  for (const double d : v) {
    unsigned char b[sizeof(double)];
    std::memcpy(b, &d, sizeof(double));
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// A grid deep enough for a three-level hierarchy: one grounded plane,
/// a biased plane, a dielectric step, and deposited point charges.
struct MgProblem {
  poisson::GridSpec g;
  poisson::Domain domain;
  poisson::Assembly assembly;
  std::vector<double> zero, fixed, n0, p0;

  MgProblem() : g(make_grid()), domain(g), assembly((setup(domain), domain)) {
    zero.assign(g.num_nodes(), 0.0);
    fixed.assign(g.num_nodes(), 0.0);
    domain.deposit_charge(g.x(8), g.y(6), g.z(5), 3.0, fixed);
    domain.deposit_charge(g.x(3), g.y(9), g.z(7), -1.5, fixed);
    n0.assign(g.num_nodes(), 0.0);
    n0[g.index(8, 6, 5)] = 1.0;
    n0[g.index(4, 3, 6)] = 0.25;
    p0.assign(g.num_nodes(), 0.0);
    p0[g.index(12, 9, 4)] = 0.5;
  }

  static poisson::GridSpec make_grid() {
    poisson::GridSpec g;
    g.nx = 17;
    g.ny = 13;
    g.nz = 11;
    g.dx = g.dy = g.dz = 0.3;
    return g;
  }
  static void setup(poisson::Domain& d) {
    d.paint_permittivity({0.0, 10.0, 0.0, 10.0, 0.0, 1.0}, 3.9);
    d.add_electrode({-1.0, 10.0, -1.0, 10.0, -0.001, 0.001});  // grounded base
    d.add_electrode({1.0, 2.5, 1.0, 2.5, 2.95, 3.05});         // embedded gate pad
  }
};

/// Deterministic quasi-random vector (no RNG: fixed phases).
std::vector<double> test_vector(size_t n, double phase) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.7 * static_cast<double>(i) + phase) +
           0.3 * std::cos(1.3 * static_cast<double>(i));
  }
  return v;
}

TEST(Multigrid, BuildsMultipleLevelsOnDeviceScaleGrid) {
  MgProblem p;
  const poisson::MultigridHierarchy h(p.assembly);
  ASSERT_GE(h.num_levels(), 3u);
  EXPECT_EQ(h.unknowns(0), p.assembly.num_free());
  for (size_t l = 0; l + 1 < h.num_levels(); ++l) {
    EXPECT_LT(h.unknowns(l + 1), h.unknowns(l)) << "level " << l;
  }
}

TEST(Multigrid, RestrictionIsProlongationTranspose) {
  // <R u, v>_coarse must equal <u, P v>_fine for every level pair: the
  // restriction is built as the exact transpose of trilinear
  // prolongation, which keeps the Galerkin coarse operators symmetric.
  MgProblem p;
  const poisson::MultigridHierarchy h(p.assembly);
  ASSERT_GE(h.num_levels(), 2u);
  for (size_t l = 0; l + 1 < h.num_levels(); ++l) {
    const std::vector<double> u = test_vector(h.unknowns(l), 0.2);
    const std::vector<double> v = test_vector(h.unknowns(l + 1), 1.7);
    const std::vector<double> ru = h.restrict_residual(l, u);
    const std::vector<double> pv = h.prolongate(l, v);
    double lhs = 0.0, rhs = 0.0;
    for (size_t i = 0; i < ru.size(); ++i) lhs += ru[i] * v[i];
    for (size_t i = 0; i < pv.size(); ++i) rhs += pv[i] * u[i];
    EXPECT_NEAR(lhs, rhs, 1e-11 * (std::abs(lhs) + 1.0)) << "level " << l;
  }
}

TEST(Multigrid, VcycleContractsOnManufacturedSolution) {
  // b = A x* for a known x*: the standalone V-cycle iteration must reach
  // a 1e-10 relative residual in far fewer cycles than one per digit
  // would suggest (grid-independent contraction), and land on x*.
  MgProblem p;
  const poisson::MultigridHierarchy h(p.assembly);
  const size_t n = p.assembly.num_free();
  const std::vector<double> x_star = test_vector(n, 0.9);
  std::vector<double> b(n);
  p.assembly.matrix().multiply(x_star, b);

  std::vector<double> x(n, 0.0);
  const auto res = h.solve(b, x, 1e-10);
  ASSERT_TRUE(res.converged);
  EXPECT_LE(res.cycles, 35);  // ~0.45 contraction per V(1,1) cycle or better
  for (size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(x[i], x_star[i], 1e-7) << "unknown " << i;
  }
}

TEST(Multigrid, RefactorAfterDiagonalShiftsMatchesFreshFactorBitForBit) {
  // The Newton loop refactors after diagonal-only edits; the refresh must
  // depend only on the current matrix, not the update history.
  MgProblem p;
  const size_t n = p.assembly.num_free();
  linalg::SparseMatrix jac_a(p.assembly.matrix());
  linalg::SparseMatrix jac_b(p.assembly.matrix());
  const std::vector<double> base = p.assembly.matrix().diagonal();

  poisson::MultigridPreconditioner seasoned(p.assembly);
  seasoned.factor(jac_a);
  // Walk the diagonal through two unrelated shifts before the target.
  for (size_t i = 0; i < n; ++i) jac_a.set_diagonal(i, base[i] * (1.0 + 0.5 / (1.0 + i)));
  seasoned.refactor(jac_a);
  for (size_t i = 0; i < n; ++i) jac_a.set_diagonal(i, base[i] + 2.0);
  seasoned.refactor(jac_a);
  const double target_shift = 0.125;
  for (size_t i = 0; i < n; ++i) jac_a.set_diagonal(i, base[i] + target_shift);
  seasoned.refactor(jac_a);

  poisson::MultigridPreconditioner fresh(p.assembly);
  for (size_t i = 0; i < n; ++i) jac_b.set_diagonal(i, base[i] + target_shift);
  fresh.factor(jac_b);

  const std::vector<double> r = test_vector(n, 2.4);
  std::vector<double> za, zb;
  seasoned.apply(r, za);
  fresh.apply(r, zb);
  ASSERT_EQ(za.size(), zb.size());
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(za[i], zb[i]) << "unknown " << i;
}

TEST(Multigrid, PcgWithVcyclePreconditionerConvergesInFewIterations) {
  MgProblem p;
  poisson::MultigridPreconditioner mg(p.assembly);
  mg.factor(p.assembly.matrix());
  const std::vector<double> b = p.assembly.rhs({0.0, 0.4}, p.fixed);
  std::vector<double> x(p.assembly.num_free(), 0.0);
  linalg::PcgOptions opts;
  opts.preconditioner = &mg;
  opts.sum_order = linalg::kernels::SumOrder::kPairwise;
  const auto res = linalg::pcg_solve(p.assembly.matrix(), b, x, opts);
  ASSERT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 15u);
}

TEST(Multigrid, StandaloneSolveAgreesWithPcgPath) {
  MgProblem p;
  const std::vector<double> b = p.assembly.rhs({0.0, 0.4}, p.fixed);

  std::vector<double> x_mg(p.assembly.num_free(), 0.0);
  const auto res = poisson::multigrid_solve(p.assembly, b, x_mg, 1e-12);
  ASSERT_TRUE(res.converged);

  poisson::PoissonSolver pcg_solver(p.assembly, PreconditionerKind::kIc0);
  const std::vector<double> phi = pcg_solver.solve_linear({0.0, 0.4}, p.fixed);
  const std::vector<double> x_pcg = p.assembly.restrict_to_free(phi);
  for (size_t i = 0; i < x_mg.size(); ++i) {
    ASSERT_NEAR(x_mg[i], x_pcg[i], 1e-7) << "unknown " << i;
  }
}

TEST(Multigrid, EnvKnobsSelectMgAndStandaloneMode) {
  MgProblem p;
  {
    EnvGuard guard("GNRFET_POISSON_PC", "mg");
    EXPECT_EQ(poisson::preconditioner_kind_from_env(), PreconditionerKind::kMg);
    EXPECT_EQ(poisson::PoissonSolver(p.assembly).kind(), PreconditionerKind::kMg);
  }
  {
    EnvGuard guard("GNRFET_POISSON_MG_MODE", "typo");
    EXPECT_THROW(poisson::PoissonSolver(p.assembly, PreconditionerKind::kMg),
                 std::invalid_argument);
  }
  // make_preconditioner cannot build mg: it has no grid geometry.
  EXPECT_THROW(linalg::make_preconditioner(PreconditionerKind::kMg), std::invalid_argument);
}

TEST(Multigrid, NonlinearFixedPointMatchesIc0InBothModes) {
  // mg changes the inner linear iteration, not the Newton fixed point:
  // both the PCG-wrapped and the standalone V-cycle path must land on
  // the ic0 potential far below the 1e-5 V Newton tolerance.
  MgProblem p;
  poisson::PoissonSolver ic0(p.assembly, PreconditionerKind::kIc0);
  const auto ref = ic0.solve_nonlinear({0.0, 0.4}, p.n0, p.p0, p.fixed, p.zero, p.zero);
  ASSERT_TRUE(ref.converged);

  poisson::PoissonSolver mg(p.assembly, PreconditionerKind::kMg);
  const auto pcg_path = mg.solve_nonlinear({0.0, 0.4}, p.n0, p.p0, p.fixed, p.zero, p.zero);
  ASSERT_TRUE(pcg_path.converged);

  EnvGuard guard("GNRFET_POISSON_MG_MODE", "standalone");
  poisson::PoissonSolver mg_sa(p.assembly, PreconditionerKind::kMg);
  const auto standalone = mg_sa.solve_nonlinear({0.0, 0.4}, p.n0, p.p0, p.fixed, p.zero, p.zero);
  ASSERT_TRUE(standalone.converged);

  for (size_t i = 0; i < ref.phi_full.size(); ++i) {
    EXPECT_NEAR(pcg_path.phi_full[i], ref.phi_full[i], 1e-9);
    EXPECT_NEAR(standalone.phi_full[i], ref.phi_full[i], 1e-9);
  }
}

TEST(Multigrid, SolveRecordsVcycleAndIterationMetrics) {
  MgProblem p;
  const auto before = metrics::snapshot();
  poisson::PoissonSolver solver(p.assembly, PreconditionerKind::kMg);
  const auto res = solver.solve_nonlinear({0.0, 0.4}, p.n0, p.p0, p.fixed, p.zero, p.zero);
  ASSERT_TRUE(res.converged);
  const auto after = metrics::snapshot();
  EXPECT_GT(after.counters[static_cast<size_t>(metrics::Counter::kMgVcycles)],
            before.counters[static_cast<size_t>(metrics::Counter::kMgVcycles)]);
  EXPECT_GT(after.histograms[static_cast<size_t>(metrics::Histogram::kPcgIterationsMg)].count,
            before.histograms[static_cast<size_t>(metrics::Histogram::kPcgIterationsMg)].count);
}

TEST(MultigridParallel, ConcurrentMgSolversMatchSerialBitForBit) {
  // mg solves are single-threaded inside (parallelism is across solves);
  // concurrent workers each owning a PoissonSolver must reproduce the
  // serial bits for any pool size. Also the TSan target for this layer.
  MgProblem p;
  constexpr size_t kCases = 6;
  std::vector<uint64_t> serial(kCases);
  for (size_t i = 0; i < kCases; ++i) {
    poisson::PoissonSolver solver(p.assembly, PreconditionerKind::kMg);
    const auto res = solver.solve_nonlinear({0.05 * static_cast<double>(i), 0.3}, p.n0, p.p0,
                                            p.fixed, p.zero, p.zero);
    ASSERT_TRUE(res.converged);
    serial[i] = fnv1a(res.phi_full);
  }

  for (const int threads : {4, 16}) {
    const int prev_threads = par::thread_count();
    par::set_thread_count(threads);
    std::vector<uint64_t> parallel(kCases, 0);
    par::parallel_for(kCases, [&](size_t i) {
      poisson::PoissonSolver solver(p.assembly, PreconditionerKind::kMg);
      const auto res = solver.solve_nonlinear({0.05 * static_cast<double>(i), 0.3}, p.n0, p.p0,
                                              p.fixed, p.zero, p.zero);
      parallel[i] = res.converged ? fnv1a(res.phi_full) : 0;
    });
    par::set_thread_count(prev_threads);
    for (size_t i = 0; i < kCases; ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "case " << i << " threads " << threads;
    }
  }
}

}  // namespace
