#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "poisson/grid.hpp"
#include "support/poisson_oracles.hpp"

namespace {

using namespace gnrfet;
using linalg::PreconditionerKind;

/// FNV-1a over the raw double bytes: any single-bit difference anywhere in
/// the field changes the hash, which is exactly the bit-compat contract.
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

/// The golden nonlinear problem: a 7^3 grid with one grounded/biased
/// electrode plane, a deposited fixed charge, and point electron/hole
/// populations. Identical to the capture run that produced the hashes in
/// the Golden test below.
struct GoldenProblem {
  poisson::GridSpec g;
  poisson::Domain domain;
  std::vector<double> zero, fixed, n0, p0;

  GoldenProblem() : g(make_grid()), domain(g) {
    domain.add_electrode({-1, 10, -1, 10, -0.001, 0.001});
    zero.assign(g.num_nodes(), 0.0);
    fixed.assign(g.num_nodes(), 0.0);
    domain.deposit_charge(g.x(3), g.y(3), g.z(3), 2.0, fixed);
    n0.assign(g.num_nodes(), 0.0);
    n0[g.index(3, 3, 3)] = 1.0;
    n0[g.index(2, 3, 4)] = 0.25;
    p0.assign(g.num_nodes(), 0.0);
    p0[g.index(4, 4, 2)] = 0.5;
  }

  static poisson::GridSpec make_grid() {
    poisson::GridSpec g;
    g.nx = g.ny = g.nz = 7;
    g.dx = g.dy = g.dz = 0.3;
    return g;
  }
};

TEST(PoissonSolverGolden, Ic0DefaultPathBitIdentical) {
  // Regression pin of the production path (PoissonSolver(domain): IC(0),
  // warm-started, pairwise-summed PCG inside the damped Newton loop). The
  // hashes, Newton and PCG iteration counts and hexfloat samples were
  // captured before the alternative preconditioners and the Jacobi-baseline
  // fork were deleted; deleting them must not move a bit.
  GoldenProblem p;
  EXPECT_EQ(poisson::PoissonSolver(p.domain).kind(), PreconditionerKind::kIc0);
  const auto pcg_iterations = [] {
    return metrics::snapshot().counters[static_cast<size_t>(metrics::Counter::kPcgIterations)];
  };

  const uint64_t c0 = pcg_iterations();
  const auto r1 = poisson::PoissonSolver(p.domain).solve_nonlinear({0.0}, p.n0, p.p0, p.fixed,
                                                                     p.zero, p.zero);
  const uint64_t c1 = pcg_iterations();
  ASSERT_TRUE(r1.converged);
  EXPECT_EQ(r1.iterations, 8);
  EXPECT_EQ(c1 - c0, 138u);
  EXPECT_EQ(fnv1a(r1.phi_full), 0x4fbd314a2c1c9086ull);
  EXPECT_EQ(r1.phi_full[0], 0x0p+0);
  EXPECT_EQ(r1.phi_full[171], 0x1.2533f9f746e95p-6);
  EXPECT_EQ(r1.phi_full[342], 0x1.16d44cb7bf8d9p-9);
  EXPECT_EQ(r1.last_update_V, 0x1.3b1f38fdad8f3p-23);

  const auto r2 = poisson::PoissonSolver(p.domain).solve_nonlinear(
      {0.3}, p.n0, p.p0, p.fixed, r1.phi_full, r1.phi_full);
  const uint64_t c2 = pcg_iterations();
  ASSERT_TRUE(r2.converged);
  EXPECT_EQ(r2.iterations, 9);
  EXPECT_EQ(c2 - c1, 167u);
  EXPECT_EQ(fnv1a(r2.phi_full), 0x4c81bfd5c745c6b0ull);
  EXPECT_EQ(r2.phi_full[0], 0x1.3333333333333p-2);
  EXPECT_EQ(r2.phi_full[171], 0x1.2664ae1096db5p-5);
  EXPECT_EQ(r2.phi_full[342], 0x1.71efa03f34f15p-3);
  EXPECT_EQ(r2.last_update_V, 0x1.23b54485a1bdbp-26);
}

TEST(PoissonSolver, PreconditionersAgreeOnNonlinearFixedPoint) {
  // The preconditioner changes the inner-PCG iteration path, not the
  // Newton fixed point: both must land on the same potential far below the
  // 1e-5 V Newton tolerance.
  GoldenProblem p;
  std::vector<std::vector<double>> phis;
  for (const auto kind : {PreconditionerKind::kJacobi, PreconditionerKind::kIc0}) {
    poisson::PoissonSolver solver(p.domain, kind);
    auto res = solver.solve_nonlinear({0.0}, p.n0, p.p0, p.fixed, p.zero, p.zero);
    ASSERT_TRUE(res.converged);
    phis.push_back(std::move(res.phi_full));
  }
  for (size_t i = 0; i < phis[0].size(); ++i) {
    EXPECT_NEAR(phis[1][i], phis[0][i], 1e-9);
  }
}

TEST(PoissonSolver, ReusedSolverSequenceIsDeterministic) {
  // One PoissonSolver carries state between solves (warm-started delta,
  // refactored preconditioner, reused workspace); two instances fed the
  // same solve sequence must stay bit-identical at every step, and the
  // first solve must match a fresh solver's.
  GoldenProblem p;
  poisson::PoissonSolver a(p.domain, PreconditionerKind::kIc0);
  poisson::PoissonSolver b(p.domain, PreconditionerKind::kIc0);

  const auto a1 = a.solve_nonlinear({0.0}, p.n0, p.p0, p.fixed, p.zero, p.zero);
  const auto b1 = b.solve_nonlinear({0.0}, p.n0, p.p0, p.fixed, p.zero, p.zero);
  ASSERT_TRUE(a1.converged);
  EXPECT_EQ(fnv1a(a1.phi_full), fnv1a(b1.phi_full));
  const auto free1 = poisson::PoissonSolver(p.domain).solve_nonlinear({0.0}, p.n0, p.p0,
                                                                        p.fixed, p.zero, p.zero);
  EXPECT_EQ(fnv1a(free1.phi_full), fnv1a(a1.phi_full));

  const auto a2 =
      a.solve_nonlinear({0.3}, p.n0, p.p0, p.fixed, a1.phi_full, a1.phi_full);
  const auto b2 =
      b.solve_nonlinear({0.3}, p.n0, p.p0, p.fixed, b1.phi_full, b1.phi_full);
  ASSERT_TRUE(a2.converged);
  EXPECT_EQ(fnv1a(a2.phi_full), fnv1a(b2.phi_full));
}

TEST(PoissonSolver, SolveRecordsPreconditionerMetrics) {
  GoldenProblem p;
  const auto before = metrics::snapshot();
  poisson::PoissonSolver solver(p.domain, PreconditionerKind::kIc0);
  const auto res = solver.solve_nonlinear({0.0}, p.n0, p.p0, p.fixed, p.zero, p.zero);
  ASSERT_TRUE(res.converged);
  const auto after = metrics::snapshot();
  EXPECT_GT(after.counters[static_cast<size_t>(metrics::Counter::kPcgPrecondSetups)],
            before.counters[static_cast<size_t>(metrics::Counter::kPcgPrecondSetups)]);
  EXPECT_GT(
      after.histograms[static_cast<size_t>(metrics::Histogram::kPcgIterationsPerSolve)].count,
      before.histograms[static_cast<size_t>(metrics::Histogram::kPcgIterationsPerSolve)].count);
}

/// Total full-grid PCG iterations of `kind` over three charge cases on a
/// MOS-like gate stack: a 24 x 16 x 16 grid at scale 1, the same 6 x 4 x 4 nm
/// box refined `scale` times. Each case deposits one impurity and a sheet
/// of channel electrons at one density, the charge the Gummel loop feeds
/// Poisson, and runs a linear solve and a nonlinear solve from it.
uint64_t gate_stack_pcg_iterations(PreconditionerKind kind, size_t scale) {
  poisson::GridSpec g;
  g.nx = 24 * scale;
  g.ny = 16 * scale;
  g.nz = 16 * scale;
  g.dx = g.dy = g.dz = 0.25 / double(scale);
  poisson::Domain domain(g);
  domain.paint_permittivity({-1.0, 1e9, -1.0, 1e9, -1.0, 1e9}, 3.9);
  domain.add_electrode({-1.0, 1e9, -1.0, 1e9, -0.001, 0.001});
  const double z_top = g.z(g.nz - 1);
  domain.add_electrode({-1.0, 1e9, -1.0, 1e9, z_top - 0.001, z_top + 0.001});
  const std::vector<double> p0(g.num_nodes(), 0.0);

  const auto pcg_iterations = [] {
    return metrics::snapshot().counters[static_cast<size_t>(metrics::Counter::kPcgIterations)];
  };
  const uint64_t before = pcg_iterations();
  poisson::PoissonSolver solver(domain, kind);
  for (const double amp : {0.2, 0.6, 1.2}) {
    std::vector<double> fixed(g.num_nodes(), 0.0);
    std::vector<double> n0(g.num_nodes(), 0.0);
    domain.deposit_charge(g.x(g.nx / 3), g.y(g.ny / 2), g.z(g.nz / 2), 1.0, fixed);
    for (size_t i = 2; i + 2 < g.nx; ++i) {
      domain.deposit_charge(g.x(i), g.y(g.ny / 2), g.z(g.nz / 2), amp / double(g.nx), n0);
    }
    const auto phi_lin = solver.solve_linear({0.0, 0.4}, fixed);
    const auto res = solver.solve_nonlinear({0.0, 0.4}, n0, p0, fixed, phi_lin, phi_lin);
    EXPECT_TRUE(res.converged) << linalg::to_string(kind) << " scale " << scale << " amp " << amp;
  }
  return pcg_iterations() - before;
}

TEST(PoissonSolver, Ic0NeedsFewerPcgIterationsThanJacobiAtTwoScales) {
  // The production preconditioner must beat the Jacobi reference on the
  // same Newton loop, and keep beating it under mesh refinement.
  for (const size_t scale : {size_t{1}, size_t{2}}) {
    const uint64_t jacobi = gate_stack_pcg_iterations(PreconditionerKind::kJacobi, scale);
    const uint64_t ic0 = gate_stack_pcg_iterations(PreconditionerKind::kIc0, scale);
    EXPECT_LT(ic0, jacobi) << "scale " << scale;
  }
}

TEST(PoissonSolverParallel, ConcurrentSolversMatchSerialBitForBit) {
  // The thread-pool parallelism is across solves: each worker owns its own
  // PoissonSolver. Concurrent solves over distinct bias points must be
  // bit-identical to the serial run (also the TSan target for this layer).
  GoldenProblem p;
  constexpr size_t kCases = 6;
  std::vector<uint64_t> serial(kCases);
  for (size_t i = 0; i < kCases; ++i) {
    poisson::PoissonSolver solver(p.domain, PreconditionerKind::kIc0);
    const auto res = solver.solve_nonlinear({0.05 * static_cast<double>(i)}, p.n0, p.p0, p.fixed,
                                            p.zero, p.zero);
    ASSERT_TRUE(res.converged);
    serial[i] = fnv1a(res.phi_full);
  }

  const int prev_threads = par::thread_count();
  par::set_thread_count(4);
  std::vector<uint64_t> parallel(kCases, 0);
  par::parallel_for(kCases, [&](size_t i) {
    poisson::PoissonSolver solver(p.domain, PreconditionerKind::kIc0);
    const auto res = solver.solve_nonlinear({0.05 * static_cast<double>(i)}, p.n0, p.p0, p.fixed,
                                            p.zero, p.zero);
    parallel[i] = res.converged ? fnv1a(res.phi_full) : 0;
  });
  par::set_thread_count(prev_threads);

  for (size_t i = 0; i < kCases; ++i) EXPECT_EQ(parallel[i], serial[i]) << "case " << i;
}

}  // namespace
