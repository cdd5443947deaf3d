#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

#include "circuit/mna.hpp"
#include "circuit/netlists.hpp"
#include "common/parallel.hpp"
#include "linalg/dense.hpp"
#include "linalg/kernels.hpp"
#include "linalg/lu.hpp"
#include "linalg/pcg.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sparse.hpp"
#include "support/linalg_oracles.hpp"
#include "synthetic_device.hpp"
#include "test_support.hpp"

namespace {

using gnrfet::linalg::CMatrix;
using gnrfet::linalg::cplx;
using gnrfet::linalg::DMatrix;

CMatrix random_matrix(size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  CMatrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) m(i, j) = cplx(d(rng), d(rng));
  }
  return m;
}

CMatrix random_hermitian(size_t n, unsigned seed) {
  CMatrix a = random_matrix(n, seed);
  return gnrfet::linalg::hermitian_part(a);
}

TEST(Dense, MultiplyIdentity) {
  const CMatrix a = random_matrix(7, 1);
  const CMatrix i = CMatrix::identity(7);
  const CMatrix ai = a * i;
  for (size_t r = 0; r < 7; ++r) {
    for (size_t c = 0; c < 7; ++c) {
      EXPECT_NEAR(std::abs(ai(r, c) - a(r, c)), 0.0, 1e-14);
    }
  }
}

TEST(Dense, AdjointIsConjugateTranspose) {
  const CMatrix a = random_matrix(5, 2);
  const CMatrix ad = a.adjoint();
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(ad(r, c), std::conj(a(c, r)));
    }
  }
}

TEST(Dense, ShapeMismatchThrows) {
  CMatrix a(3, 3), b(4, 4);
  EXPECT_THROW(a += b, std::invalid_argument);
  CMatrix c(3, 4), d(3, 4);
  EXPECT_THROW(c * d, std::invalid_argument);
}

TEST(LU, SolveRecoversKnownSolution) {
  const size_t n = 12;
  const CMatrix a = random_matrix(n, 3);
  std::vector<cplx> x_true(n);
  for (size_t i = 0; i < n; ++i) x_true[i] = cplx(double(i) + 0.5, -double(i));
  std::vector<cplx> b(n);
  for (size_t i = 0; i < n; ++i) {
    cplx s = 0.0;
    for (size_t j = 0; j < n; ++j) s += a(i, j) * x_true[j];
    b[i] = s;
  }
  const auto x = gnrfet::tests::lu_solve(gnrfet::tests::lu_factor(a), b);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-9);
}

TEST(LU, SingularThrows) {
  CMatrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;  // row/col 2 all zero
  gnrfet::linalg::LU<cplx> lu;
  EXPECT_THROW(lu.factor(a), std::runtime_error);
}

TEST(LU, RealSolve) {
  DMatrix a(3, 3);
  a(0, 0) = 4;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  a(2, 2) = 2;
  const std::vector<double> b = {1.0, 2.0, 4.0};
  const auto x = gnrfet::tests::lu_solve(gnrfet::tests::lu_factor(a), b);
  EXPECT_NEAR(4 * x[0] + x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[0] + 3 * x[1], 2.0, 1e-12);
  EXPECT_NEAR(2 * x[2], 4.0, 1e-12);
}

TEST(LU, RealRefactorMatchesFreshFactorizationBitForBit) {
  // One LU refactored across two matrices of the same shape (the circuit
  // Newton loop's reuse pattern) must give the bits of a fresh LU of each.
  const auto make = [](double shift) {
    DMatrix a(5, 5);
    for (size_t i = 0; i < 5; ++i) {
      for (size_t j = 0; j < 5; ++j) {
        a(i, j) = std::cos(0.37 * static_cast<double>((i + 1) * (j + 2) * (i + j + 1)) + shift);
      }
    }
    return a;
  };
  const DMatrix a1 = make(0.0), a2 = make(0.4);
  const std::vector<double> b = {0.3, -1.1, 2.0, 0.7, -0.5};
  gnrfet::linalg::LU<double> reused;
  std::vector<double> x;
  for (const DMatrix* a : {&a1, &a2}) {
    reused.factor(*a);
    reused.solve_into(b, x);
    const std::vector<double> fresh =
        gnrfet::tests::lu_solve(gnrfet::tests::lu_factor(*a), b);
    ASSERT_EQ(x.size(), fresh.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(x[i]), std::bit_cast<uint64_t>(fresh[i])) << i;
    }
  }
}

/// Solves a x = b in the natural order and in the minimum-degree order of
/// a, checks the two agree to 1e-13 relative, and returns the elimination
/// updates of the {natural, ordered} factorizations.
std::pair<size_t, size_t> compare_orders(const DMatrix& a, const std::vector<double>& b) {
  const std::vector<size_t> order = gnrfet::linalg::minimum_degree_order(a);
  const auto natural = gnrfet::tests::lu_factor(a);
  const auto ordered = gnrfet::tests::lu_factor(gnrfet::tests::permuted(a, order));
  const std::vector<double> xn = gnrfet::tests::lu_solve(natural, b);
  std::vector<double> pb(b.size()), xo(b.size());
  for (size_t i = 0; i < b.size(); ++i) pb[i] = b[order[i]];
  const std::vector<double> xp = gnrfet::tests::lu_solve(ordered, pb);
  for (size_t i = 0; i < b.size(); ++i) xo[order[i]] = xp[i];
  double scale = 0.0;
  for (const double v : xn) scale = std::max(scale, std::abs(v));
  for (size_t i = 0; i < xn.size(); ++i) EXPECT_NEAR(xo[i], xn[i], 1e-13 * scale) << i;
  return {natural.elimination_updates(), ordered.elimination_updates()};
}

TEST(LU, OrderedSolveMatchesNaturalOrderOnSparseSystem) {
  // Random diagonally dominant matrix, about four off-diagonal entries a
  // row in an unsymmetric pattern.
  const size_t n = 60;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::uniform_int_distribution<size_t> col(0, n - 1);
  DMatrix a(n, n);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) {
    for (int k = 0; k < 4; ++k) a(i, col(rng)) = d(rng);
    a(i, i) = 0.0;
    double off = 0.0;
    for (size_t j = 0; j < n; ++j) off += std::abs(a(i, j));
    a(i, i) = (1.0 + off) * (d(rng) < 0.0 ? -1.0 : 1.0);
    b[i] = d(rng);
  }
  const auto [natural, ordered] = compare_orders(a, b);
  EXPECT_LT(ordered, natural);
}

TEST(LU, OrderedSolveMatchesNaturalOrderOnRingJacobian) {
  // The transient Newton Jacobian of the 15-stage FO4 ring oscillator at
  // its kick state, with the Newton loop's gmin on the node rows.
  using namespace gnrfet;
  const circuit::InverterModels inv = synthetic::synthetic_inverter();
  const circuit::RingOscillator ro =
      circuit::build_ring_oscillator(std::vector<circuit::InverterModels>(15, inv), inv, 0.4);
  const circuit::Circuit& ckt = ro.ckt;
  const std::vector<double> x = ro.kick_state();
  std::vector<double> state(ckt.state_size(), 0.0);
  for (const auto& e : ckt.elements()) e->commit(ckt, x, circuit::TransientContext{}, state);
  circuit::TransientContext ctx;
  ctx.time = 0.5e-12;
  ctx.dt = 0.5e-12;
  ctx.state = &state;
  circuit::MnaWorkspace ws(ckt.num_unknowns());
  ws.stamp(ckt, x, ctx);
  for (size_t i = 0; i + ckt.num_branches() < ckt.num_unknowns(); ++i) ws.jac(i, i) += 1e-12;
  std::vector<double> rhs(ws.res.size());
  for (size_t i = 0; i < rhs.size(); ++i) rhs[i] = -ws.res[i];

  const auto [natural, ordered] = compare_orders(ws.jac, rhs);
  // The natural node order fills the ring's Jacobian almost completely.
  EXPECT_GE(natural, 20 * ordered) << natural << " vs " << ordered;
}

TEST(MinimumDegreeOrder, IsADeterministicPermutationWithLowestIndexTies) {
  // Arrow matrix: node 0 couples to every other node, which couple only to
  // it. The leaves tie at degree 1 and go in index order until one is
  // left; then the hub ties with it at degree 1 and goes first.
  const size_t n = 8;
  DMatrix arrow(n, n);
  for (size_t i = 0; i < n; ++i) {
    arrow(i, i) = 4.0;
    if (i > 0) arrow(0, i) = 1.0;  // one triangle only: the pattern is symmetrised
  }
  std::vector<size_t> expected(n);
  std::iota(expected.begin(), expected.end(), 1);
  expected[n - 2] = 0;
  expected[n - 1] = n - 1;
  EXPECT_EQ(gnrfet::linalg::minimum_degree_order(arrow), expected);

  // A random pattern: a permutation of 0..n-1, the same on every call.
  std::mt19937 rng(5);
  std::uniform_int_distribution<size_t> idx(0, 39);
  DMatrix a(40, 40);
  for (int k = 0; k < 120; ++k) a(idx(rng), idx(rng)) = 1.0;
  const std::vector<size_t> order = gnrfet::linalg::minimum_degree_order(a);
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> iota(40);
  std::iota(iota.begin(), iota.end(), 0);
  EXPECT_EQ(sorted, iota);
  for (int rep = 0; rep < 3; ++rep) EXPECT_EQ(gnrfet::linalg::minimum_degree_order(a), order);
}

/// ReplayLU::factor(a, pattern), returning how many analyses it ran (0: it
/// replayed the last one).
uint64_t analyses_of_factor(gnrfet::linalg::ReplayLU& replay, const DMatrix& a,
                            const std::vector<size_t>& pattern) {
  using gnrfet::metrics::Counter;
  const uint64_t before = gnrfet::tests::counter(Counter::kMnaSymbolicAnalyses);
  replay.factor(a, pattern);
  return gnrfet::tests::counter(Counter::kMnaSymbolicAnalyses) - before;
}

/// The transient Newton system of the 15-stage FO4 ring at its kick state
/// as the Newton loop factors it: the Jacobian with gmin on the node rows,
/// its structural pattern, and the right-hand side -res.
struct RingSystem {
  DMatrix jac;
  std::vector<size_t> pattern;
  std::vector<double> rhs;
};

RingSystem ring_system() {
  using namespace gnrfet;
  const circuit::InverterModels inv = synthetic::synthetic_inverter();
  const circuit::RingOscillator ro =
      circuit::build_ring_oscillator(std::vector<circuit::InverterModels>(15, inv), inv, 0.4);
  const circuit::Circuit& ckt = ro.ckt;
  const std::vector<double> x = ro.kick_state();
  std::vector<double> state(ckt.state_size(), 0.0);
  for (const auto& e : ckt.elements()) e->commit(ckt, x, circuit::TransientContext{}, state);
  circuit::TransientContext ctx;
  ctx.time = 0.5e-12;
  ctx.dt = 0.5e-12;
  ctx.state = &state;
  circuit::MnaWorkspace ws(ckt.num_unknowns());
  ws.stamp(ckt, x, ctx);
  for (size_t i = 0; i + ckt.num_branches() < ckt.num_unknowns(); ++i) ws.add_jacobian(i, i, 1e-12);
  RingSystem sys{ws.jac, ws.pattern, std::vector<double>(ws.res.size())};
  for (size_t i = 0; i < ws.res.size(); ++i) sys.rhs[i] = -ws.res[i];
  return sys;
}

/// The replayed factor's solve and update count against a fresh dense LU
/// of `a` in `order`, bit for bit. An empty `order` is the minimum-degree
/// order of `a`, which is the order ReplayLU::factor fixed on its first
/// matrix wherever the off-diagonal pattern has stayed the same.
void expect_replay_matches_dense(const gnrfet::linalg::ReplayLU& replay, const DMatrix& a,
                                 std::vector<size_t> order, const std::vector<double>& b) {
  if (order.empty()) order = gnrfet::linalg::minimum_degree_order(a);
  const auto dense = gnrfet::tests::lu_factor(gnrfet::tests::permuted(a, order));
  std::vector<double> x, pb(b.size()), xp, xd(b.size());
  replay.solve_into(b, x);
  for (size_t i = 0; i < b.size(); ++i) pb[i] = b[order[i]];
  dense.solve_into(pb, xp);
  for (size_t i = 0; i < b.size(); ++i) xd[order[i]] = xp[i];
  ASSERT_EQ(x.size(), xd.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(x[i]), std::bit_cast<uint64_t>(xd[i])) << i;
  }
  EXPECT_EQ(replay.elimination_updates(), dense.elimination_updates());
}

TEST(ReplayLU, RingJacobianSequenceMatchesDenseBitForBit) {
  // One analysis, then a sequence of ring Jacobians with perturbed values
  // (the voltage-source +-1 entries stay exact): every replay must give the
  // dense ordered factor's bits, signed zeros of the solution included.
  const RingSystem sys = ring_system();
  const std::vector<size_t> order = gnrfet::linalg::minimum_degree_order(sys.jac);
  gnrfet::linalg::ReplayLU replay;
  EXPECT_EQ(analyses_of_factor(replay, sys.jac, sys.pattern), 1u);  // nothing to replay yet
  expect_replay_matches_dense(replay, sys.jac, order, sys.rhs);

  std::mt19937 rng(7);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  for (int rep = 0; rep < 20; ++rep) {
    DMatrix a = sys.jac;
    for (const size_t k : sys.pattern) {
      if (std::abs(a.data()[k]) != 1.0) a.data()[k] *= 1.0 + 1e-3 * d(rng);
    }
    std::vector<double> b = sys.rhs;
    for (double& v : b) v *= 1.0 + 1e-3 * d(rng);
    ASSERT_EQ(analyses_of_factor(replay, a, sys.pattern), 0u) << rep;
    expect_replay_matches_dense(replay, a, order, b);
    // Right-hand sides whose solution holds exact zeros: the signs of those
    // zeros come from terms outside the factor pattern.
    std::vector<double> sparse_b(b.size(), -0.0);
    sparse_b[static_cast<size_t>(rep) % b.size()] = 1e-3;
    sparse_b[(static_cast<size_t>(rep) * 7 + 3) % b.size()] = 0.0;
    expect_replay_matches_dense(replay, a, order, sparse_b);
    expect_replay_matches_dense(replay, a, order, std::vector<double>(b.size(), -0.0));
  }
}

TEST(ReplayLU, PivotChangeForcesReanalysis) {
  // Natural order: the pattern couples all four unknowns, so the
  // minimum-degree order takes them by index. Step 0 pivots on row 2
  // (|2| > |0.5|); raising a(0, 0) to 5 moves the pivot to row 0, so the
  // replay declines and the next analysis gives the dense result.
  DMatrix a(4, 4);
  a(0, 0) = 0.5, a(0, 1) = -1.0, a(0, 3) = 0.3;
  a(1, 1) = 1.0, a(1, 2) = 0.2;
  a(2, 0) = 2.0, a(2, 2) = 0.1, a(2, 3) = 0.4;
  a(3, 1) = 0.1, a(3, 2) = 0.5, a(3, 3) = 1.5;
  std::vector<size_t> pattern;
  for (size_t k = 0; k < 16; ++k) {
    if (a.data()[k] != 0.0) pattern.push_back(k);
  }
  const std::vector<double> b = {0.3, -1.1, 2.0, 0.7};
  gnrfet::linalg::ReplayLU replay;
  EXPECT_EQ(analyses_of_factor(replay, a, pattern), 1u);
  expect_replay_matches_dense(replay, a, {}, b);
  a(3, 3) = 1.25;  // no pivot moves
  ASSERT_EQ(analyses_of_factor(replay, a, pattern), 0u);
  expect_replay_matches_dense(replay, a, {}, b);
  a(0, 0) = 5.0;
  EXPECT_EQ(analyses_of_factor(replay, a, pattern), 1u);
  expect_replay_matches_dense(replay, a, {}, b);
  ASSERT_EQ(analyses_of_factor(replay, a, pattern), 0u);
  expect_replay_matches_dense(replay, a, {}, b);
}

TEST(ReplayLU, VoltageSourcePivotTieResolvesLikeTheDenseLoop) {
  // Column 1 is a voltage-source branch column: +1 in row 1, -1 in row 2.
  // The dense loop takes the first of tied magnitudes in its current row
  // order. Analysed with |-2| in row 2, step 1 pivots on row 2, which ends
  // as factor row 1; at the +-1 tie the dense loop takes row 1 instead, so
  // the replay must decline, although the analysis' pivot row ends first
  // in the factor's row order.
  DMatrix a(3, 3);
  a(0, 0) = 1.0, a(0, 1) = 1.0;
  a(1, 1) = 1.0, a(1, 2) = 1.0;
  a(2, 1) = -2.0, a(2, 2) = 1.0;
  std::vector<size_t> pattern;
  for (size_t k = 0; k < 9; ++k) {
    if (a.data()[k] != 0.0) pattern.push_back(k);
  }
  const std::vector<double> b = {1.0, 0.5, -0.25};
  gnrfet::linalg::ReplayLU replay;
  EXPECT_EQ(analyses_of_factor(replay, a, pattern), 1u);
  expect_replay_matches_dense(replay, a, {}, b);
  a(2, 1) = -1.0;  // the tie
  EXPECT_EQ(analyses_of_factor(replay, a, pattern), 1u);
  expect_replay_matches_dense(replay, a, {}, b);
  // The tie held, other values moved: replayed, and still row 1 first.
  a(1, 2) = 0.75;
  a(2, 2) = 3.0;
  ASSERT_EQ(analyses_of_factor(replay, a, pattern), 0u);
  expect_replay_matches_dense(replay, a, {}, b);
}

TEST(ReplayLU, ZeroAndNonFiniteSolutionEntriesCarryTheDenseBits) {
  // Diagonal pattern: the dense substitutions still subtract the zero
  // products of every other unknown, and +0 * -1 = -0 turns a -0 sum
  // into +0. Below the diagonal the dense zeros carry the sign of their
  // column's pivot (0 * (1 / -2) = -0). After an infinite unknown those
  // zero products are NaN. The replay must land on the same bits.
  const double inf = std::numeric_limits<double>::infinity();
  DMatrix a(3, 3);
  a(0, 0) = 1.0, a(1, 1) = -2.0, a(2, 2) = 0.5;
  gnrfet::linalg::ReplayLU replay;
  const std::vector<size_t> pattern = {0, 4, 8};
  replay.factor(a, pattern);
  for (const std::vector<double>& b : {std::vector<double>{-0.0, 0.0, -1.0},
                                       std::vector<double>{-1.0, -0.0, 0.0},
                                       std::vector<double>{1.0, 1.0, -0.0},
                                       std::vector<double>{inf, 1.0, 2.0},
                                       std::vector<double>{1.0, 2.0, -inf},
                                       std::vector<double>{-0.0, -0.0, -0.0}}) {
    ASSERT_EQ(analyses_of_factor(replay, a, pattern), 0u);
    expect_replay_matches_dense(replay, a, {}, b);
  }
}

TEST(ReplayLU, NanPivotThrowsFromFactorAnalyseAndRefactor) {
  // A NaN pivot would give every row below it a NaN multiplier: the dense
  // factor, the analysis and the replay all reject it instead.
  DMatrix a(3, 3);
  a(0, 0) = std::numeric_limits<double>::quiet_NaN();
  a(0, 1) = 1.0;
  a(1, 0) = 1.0, a(1, 1) = 1.0;
  a(2, 2) = 1.0;
  const std::vector<size_t> pattern = {0, 1, 3, 4, 8};
  gnrfet::linalg::LU<double> dense;
  EXPECT_THROW(dense.factor(a), std::invalid_argument);
  gnrfet::linalg::ReplayLU replay;  // in order [2, 0, 1]
  EXPECT_THROW(replay.factor(a, pattern), std::invalid_argument);

  DMatrix good = a;
  good(0, 0) = 2.0;
  EXPECT_EQ(analyses_of_factor(replay, good, pattern), 1u);  // the failed analysis left none
  expect_replay_matches_dense(replay, good, {}, {1.0, 2.0, 3.0});
  const uint64_t before = gnrfet::tests::counter(gnrfet::metrics::Counter::kMnaSymbolicAnalyses);
  EXPECT_THROW(replay.factor(a, pattern), std::invalid_argument);
  // The replay threw, before any analysis.
  EXPECT_EQ(gnrfet::tests::counter(gnrfet::metrics::Counter::kMnaSymbolicAnalyses), before);
}

TEST(ReplayLU, NonzeroOutsideThePatternIsRejected) {
  // a(2, 0) is nonzero but not in the pattern: its multiplier would sit
  // outside the recorded L pattern, so no replay could reproduce it.
  DMatrix a(3, 3);
  a(0, 0) = 2.0, a(0, 1) = 1.0;
  a(1, 0) = 1.0, a(1, 1) = 1.0;
  a(2, 0) = 0.5, a(2, 2) = 1.0;
  gnrfet::linalg::ReplayLU replay;  // in order [1, 0, 2]
  EXPECT_THROW(replay.factor(a, {0, 1, 3, 4, 8}), std::invalid_argument);
  EXPECT_EQ(analyses_of_factor(replay, a, {0, 1, 3, 4, 6, 8}), 1u);
  expect_replay_matches_dense(replay, a, {}, {1.0, 2.0, 3.0});
}

TEST(ReplayLU, FirstAnalysisFixesTheOrderEvenWhenItThrows) {
  // The first matrix is diagonal and singular: its minimum-degree order is
  // the natural one, and its analysis throws. The second is an arrow with
  // its hub at 0 (minimum-degree order [1, 2, 0, 3]): factored in the
  // natural order the hub goes first and fills the whole matrix, 14
  // updates against 3, so the oracle tells the two orders apart.
  const size_t n = 4;
  DMatrix singular(n, n);
  for (size_t i = 0; i + 1 < n; ++i) singular(i, i) = 1.0;
  std::vector<size_t> pattern = {0, 5, 10, 15};
  gnrfet::linalg::ReplayLU replay;
  EXPECT_THROW(replay.factor(singular, pattern), std::runtime_error);

  DMatrix arrow(n, n);
  arrow(0, 0) = 4.0;
  for (size_t i = 1; i < n; ++i) {
    arrow(i, i) = 2.0;
    arrow(0, i) = arrow(i, 0) = 1.0;
    pattern.push_back(i);
    pattern.push_back(i * n);
  }
  std::sort(pattern.begin(), pattern.end());
  ASSERT_NE(gnrfet::linalg::minimum_degree_order(arrow),
            gnrfet::linalg::minimum_degree_order(singular));
  EXPECT_EQ(analyses_of_factor(replay, arrow, pattern), 1u);
  expect_replay_matches_dense(replay, arrow, gnrfet::linalg::minimum_degree_order(singular),
                              {0.3, -1.1, 2.0, 0.7});
  EXPECT_EQ(replay.elimination_updates(), 14u);
}

TEST(Eigh, DiagonalizesHermitian) {
  const size_t n = 9;
  const CMatrix a = random_hermitian(n, 5);
  const auto eig = gnrfet::linalg::eigh(a);
  // A V = V diag(lambda)
  const CMatrix av = a * eig.vectors;
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(av(i, j) - eig.values[j] * eig.vectors(i, j)), 0.0, 1e-8);
    }
  }
  // Eigenvalues ascending.
  for (size_t j = 1; j < n; ++j) EXPECT_GE(eig.values[j], eig.values[j - 1] - 1e-12);
}

TEST(Eigh, UnitaryEigenvectors) {
  const CMatrix a = random_hermitian(8, 6);
  const auto eig = gnrfet::linalg::eigh(a);
  const CMatrix vtv = eig.vectors.adjoint() * eig.vectors;
  CMatrix diff = vtv;
  diff -= CMatrix::identity(8);
  EXPECT_LT(gnrfet::linalg::frobenius_norm(diff), 1e-8);
}

TEST(Eigh, RejectsNonHermitian) {
  CMatrix a(2, 2);
  a(0, 1) = cplx(1.0, 0.0);
  a(1, 0) = cplx(5.0, 0.0);
  EXPECT_THROW(gnrfet::linalg::eigh(a), std::invalid_argument);
}

TEST(Eigh, KnownTwoByTwo) {
  CMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  a(0, 1) = cplx(0.0, 2.0);
  a(1, 0) = cplx(0.0, -2.0);
  const auto eig = gnrfet::linalg::eigh(a);
  const double r = std::sqrt(5.0);
  EXPECT_NEAR(eig.values[0], -r, 1e-10);
  EXPECT_NEAR(eig.values[1], r, 1e-10);
}

TEST(Sparse, CsrAccumulatesDuplicates) {
  gnrfet::linalg::SparseBuilder b(3);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.0);
  b.add(1, 2, -1.0);
  b.add(2, 2, 4.0);
  const gnrfet::linalg::SparseMatrix m(b);
  std::vector<double> y;
  m.multiply({1.0, 1.0, 1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
}

TEST(Pcg, SolvesLaplacian1D) {
  const size_t n = 50;
  gnrfet::linalg::SparseBuilder b(n);
  for (size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  const gnrfet::linalg::SparseMatrix a(b);
  std::vector<double> rhs(n, 1.0);
  std::vector<double> x(n, 0.0);
  gnrfet::linalg::JacobiPreconditioner jacobi;
  jacobi.factor(a);
  gnrfet::linalg::PcgWorkspace ws;
  const auto res = gnrfet::linalg::pcg_solve(a, rhs, x, jacobi, ws);
  ASSERT_TRUE(res.converged);
  std::vector<double> ax;
  a.multiply(x, ax);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-7);
}

TEST(Pcg, WarmStartConvergesInstantly) {
  const size_t n = 20;
  gnrfet::linalg::SparseBuilder b(n);
  for (size_t i = 0; i < n; ++i) b.add(i, i, 3.0);
  const gnrfet::linalg::SparseMatrix a(b);
  std::vector<double> rhs(n, 6.0);
  std::vector<double> x(n, 2.0);  // exact solution
  gnrfet::linalg::JacobiPreconditioner jacobi;
  jacobi.factor(a);
  gnrfet::linalg::PcgWorkspace ws;
  const auto res = gnrfet::linalg::pcg_solve(a, rhs, x, jacobi, ws);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 1u);
}

// --- Summation kernels -----------------------------------------------------

namespace kernels = gnrfet::linalg::kernels;

std::vector<double> random_vector(size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = d(rng);
  return v;
}

TEST(Kernels, PairwiseDotMatchesSequentialToRounding) {
  // Sizes straddling the 32-element block boundary and the recursion split.
  for (const size_t n : {1u, 31u, 32u, 33u, 64u, 100u, 257u, 1000u}) {
    const auto a = random_vector(n, 21);
    const auto b = random_vector(n, 22);
    double seq = 0.0;  // plain left-to-right reference
    for (size_t i = 0; i < n; ++i) seq += a[i] * b[i];
    const double pw = kernels::dot(a, b);
    EXPECT_NEAR(pw, seq, 1e-12 * (1.0 + std::abs(seq))) << "n=" << n;
    // Up to one block the pairwise sum is the left-to-right loop itself.
    if (n <= 32) {
      EXPECT_EQ(pw, seq) << "n=" << n;
    }
    // Determinism: the tree shape depends only on n, so a repeat call is
    // bit-identical.
    EXPECT_EQ(kernels::dot(a, b), pw);
  }
}

TEST(Kernels, AxpyAndXpby) {
  std::vector<double> y = {1.0, 2.0, 3.0};
  kernels::axpy(2.0, {10.0, 20.0, 30.0}, y);
  EXPECT_EQ(y, (std::vector<double>{21.0, 42.0, 63.0}));
  std::vector<double> p = {1.0, 1.0, 1.0};
  kernels::xpby({5.0, 6.0, 7.0}, 0.5, p);
  EXPECT_EQ(p, (std::vector<double>{5.5, 6.5, 7.5}));
}

TEST(Kernels, GatherDotAccumulatesRowSegment) {
  const double values[] = {2.0, -1.0, 3.0};
  const size_t col[] = {0, 2, 3};
  const double x[] = {1.0, 100.0, 10.0, 0.5};
  EXPECT_DOUBLE_EQ(kernels::gather_dot(values, col, 0, 3, x), 2.0 - 10.0 + 1.5);
  EXPECT_DOUBLE_EQ(kernels::gather_dot(values, col, 1, 1, x), 0.0);
}

TEST(Kernels, DenseMatvecMatchesOneRowOracleBitForBit) {
  // n = 1..40 covers every column tail (n mod 4) and every count of rows
  // left past the last full block of eight; 493..499 do the same around
  // the N = 12 capacitance matrix (496 charge nodes). Entries mix signs
  // and span 2^-30..2^30, so any other summation order moves low bits.
  std::mt19937 rng(32);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  const auto draw = [&] { return std::ldexp(mantissa(rng), exponent(rng)); };
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  for (size_t n = 493; n <= 499; ++n) sizes.push_back(n);
  for (const size_t n : sizes) {
    std::vector<double> a(n * n), x(n);
    for (double& v : a) v = draw();
    for (double& v : x) v = draw();
    std::vector<double> y(n, std::numeric_limits<double>::quiet_NaN()), ref(n);
    kernels::dense_matvec(a.data(), n, x.data(), y.data());
    gnrfet::linalg::dense_matvec_one_row(a.data(), n, x.data(), ref.data());
    size_t differing = 0;
    for (size_t i = 0; i < n; ++i) {
      if (std::bit_cast<uint64_t>(y[i]) != std::bit_cast<uint64_t>(ref[i])) ++differing;
    }
    EXPECT_EQ(differing, 0u) << "n=" << n;
  }
}

// --- Sparse diagonal-retarget API ------------------------------------------

TEST(Sparse, SetDiagonalMatchesCopyPlusAddToDiagonal) {
  // The Newton loop uses set_diagonal(base + dq) on a persistent Jacobian:
  // it must overwrite exactly the diagonal entries, in CSR order, and
  // leave the off-diagonals alone.
  gnrfet::linalg::SparseBuilder b(3);
  b.add(0, 0, 2.0);
  b.add(0, 1, -1.0);
  b.add(1, 0, -1.0);
  b.add(1, 1, 2.0);
  b.add(2, 2, 1.5);
  gnrfet::linalg::SparseMatrix persistent(b);
  const double dq[] = {0.37, -1.25e-3, 7.5};
  const double base[] = {2.0, 2.0, 1.5};
  for (size_t i = 0; i < 3; ++i) persistent.set_diagonal(i, base[i] + dq[i]);
  const std::vector<double> expected = {2.0 + 0.37, -1.0, -1.0, 2.0 - 1.25e-3, 1.5 + 7.5};
  EXPECT_EQ(persistent.values(), expected);
  EXPECT_THROW(persistent.set_diagonal(3, 1.0), std::out_of_range);
}

// --- Preconditioners --------------------------------------------------------

// 2D 5-point Laplacian on an nx-by-ny grid: SPD, the Poisson stencil shape.
gnrfet::linalg::SparseMatrix laplacian2d(size_t nx, size_t ny) {
  gnrfet::linalg::SparseBuilder b(nx * ny);
  auto id = [&](size_t i, size_t j) { return i * ny + j; };
  for (size_t i = 0; i < nx; ++i) {
    for (size_t j = 0; j < ny; ++j) {
      b.add(id(i, j), id(i, j), 4.0);
      if (i > 0) b.add(id(i, j), id(i - 1, j), -1.0);
      if (i + 1 < nx) b.add(id(i, j), id(i + 1, j), -1.0);
      if (j > 0) b.add(id(i, j), id(i, j - 1), -1.0);
      if (j + 1 < ny) b.add(id(i, j), id(i, j + 1), -1.0);
    }
  }
  return gnrfet::linalg::SparseMatrix(b);
}

TEST(Preconditioner, IcZeroIsExactCholeskyOnTridiagonal) {
  // A tridiagonal SPD matrix has no fill, so IC(0) equals the exact
  // Cholesky factorization (and the MIC drop compensation never engages):
  // apply() must return the exact A^{-1} r.
  const size_t n = 8;
  gnrfet::linalg::SparseBuilder b(n);
  for (size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  const gnrfet::linalg::SparseMatrix a(b);
  gnrfet::linalg::IncompleteCholesky ic;
  ic.factor(a);
  EXPECT_EQ(ic.diagonal_shift(), 0.0);
  const auto r = random_vector(n, 31);
  std::vector<double> z;
  ic.apply(r, z);
  std::vector<double> az;
  a.multiply(z, az);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(az[i], r[i], 1e-12);
}

TEST(Preconditioner, BreakdownFallsBackToDiagonalShift) {
  // Symmetric but indefinite: the (1,1) pivot goes negative, which must
  // trigger the Manteuffel shift escalation instead of producing NaNs.
  gnrfet::linalg::SparseBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 2.0);
  b.add(1, 1, 1.0);
  const gnrfet::linalg::SparseMatrix a(b);
  gnrfet::linalg::IncompleteCholesky ic;
  ic.factor(a);
  EXPECT_GT(ic.diagonal_shift(), 0.0);
  std::vector<double> z;
  ic.apply({1.0, -1.0}, z);
  EXPECT_TRUE(std::isfinite(z[0]));
  EXPECT_TRUE(std::isfinite(z[1]));
}

TEST(Preconditioner, RefactorAfterDiagonalUpdateMatchesFreshFactor) {
  // The full-grid Newton oracle only moves the Jacobian diagonal, then
  // factors the same preconditioner object again; the result must match a
  // factorization by a fresh object bit-for-bit (nothing carries over).
  gnrfet::linalg::SparseMatrix a = laplacian2d(4, 4);
  gnrfet::linalg::IncompleteCholesky reused;
  reused.factor(a);
  for (size_t i = 0; i < a.dim(); ++i) {
    a.set_diagonal(i, 4.0 + 0.01 * static_cast<double>(i));
  }
  reused.factor(a);
  gnrfet::linalg::IncompleteCholesky fresh;
  fresh.factor(a);
  const auto r = random_vector(a.dim(), 51);
  std::vector<double> z_reused, z_fresh;
  reused.apply(r, z_reused);
  fresh.apply(r, z_fresh);
  for (size_t i = 0; i < a.dim(); ++i) EXPECT_EQ(z_reused[i], z_fresh[i]);
}

TEST(Preconditioner, FactoryBuildsEachKindUnderItsName) {
  using gnrfet::linalg::PreconditionerKind;
  for (const auto kind : {PreconditionerKind::kJacobi, PreconditionerKind::kIc0}) {
    const auto pc = gnrfet::linalg::make_preconditioner(kind);
    const bool is_ic0 = dynamic_cast<gnrfet::linalg::IncompleteCholesky*>(pc.get()) != nullptr;
    EXPECT_EQ(is_ic0, kind == PreconditionerKind::kIc0) << gnrfet::linalg::to_string(kind);
  }
}

TEST(Pcg, AllPreconditionersReachTheSameSolution) {
  const gnrfet::linalg::SparseMatrix a = laplacian2d(16, 16);
  const auto rhs = random_vector(a.dim(), 61);
  std::vector<std::vector<double>> solutions;
  std::vector<size_t> iterations;
  for (const auto kind :
       {gnrfet::linalg::PreconditionerKind::kJacobi, gnrfet::linalg::PreconditionerKind::kIc0}) {
    const auto pc = gnrfet::linalg::make_preconditioner(kind);
    pc->factor(a);
    std::vector<double> x(a.dim(), 0.0);
    gnrfet::linalg::PcgWorkspace ws;
    const auto res = gnrfet::linalg::pcg_solve(a, rhs, x, *pc, ws);
    ASSERT_TRUE(res.converged) << gnrfet::linalg::to_string(kind);
    solutions.push_back(std::move(x));
    iterations.push_back(res.iterations);
  }
  for (size_t i = 0; i < a.dim(); ++i) {
    EXPECT_NEAR(solutions[1][i], solutions[0][i], 1e-7);
  }
  // IC(0) must actually pay off on the Laplacian.
  EXPECT_LT(iterations[1], iterations[0]);  // ic0 < jacobi
}

// --- Lane kernels -------------------------------------------------------------

constexpr size_t kLanes = gnrfet::linalg::kernels::kLanes;

/// Interleaves kLanes vectors of one length: row i of lane j at i*kLanes + j.
std::vector<double> interleave(const std::vector<std::vector<double>>& lanes) {
  std::vector<double> out(lanes[0].size() * kLanes);
  for (size_t j = 0; j < kLanes; ++j) {
    for (size_t i = 0; i < lanes[j].size(); ++i) out[i * kLanes + j] = lanes[j][i];
  }
  return out;
}

std::vector<std::vector<double>> random_lanes(size_t n, unsigned seed) {
  std::vector<std::vector<double>> lanes;
  for (size_t j = 0; j < kLanes; ++j) lanes.push_back(random_vector(n, seed + static_cast<unsigned>(j)));
  return lanes;
}

TEST(Lanes, DotMatchesOneLaneBitForBit) {
  // Lengths off the 32-element block grid, so the pairwise recursion's
  // uneven split runs in every lane.
  for (const size_t n : {7u, 33u, 77u, 100u, 1001u}) {
    const auto a = random_lanes(n, 101);
    const auto b = random_lanes(n, 201);
    const auto ai = interleave(a);
    const auto bi = interleave(b);
    double out[kLanes];
    kernels::dot<kLanes>(ai.data(), bi.data(), n, out);
    for (size_t j = 0; j < kLanes; ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(out[j]), std::bit_cast<uint64_t>(kernels::dot(a[j], b[j])))
          << "n=" << n << " lane " << j;
    }
  }
}

TEST(Lanes, MultiplyAndIcZeroApplyMatchOneLaneBitForBit) {
  const gnrfet::linalg::SparseMatrix a = laplacian2d(7, 11);  // 77 rows
  gnrfet::linalg::IncompleteCholesky ic;
  ic.factor(a);
  const auto x = random_lanes(a.dim(), 301);
  std::vector<double> y_lanes, z_lanes;
  a.multiply(interleave(x), y_lanes, kLanes);
  ic.apply(interleave(x), z_lanes, kLanes);
  for (size_t j = 0; j < kLanes; ++j) {
    std::vector<double> y, z;
    a.multiply(x[j], y);
    ic.apply(x[j], z);
    for (size_t i = 0; i < a.dim(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(y_lanes[i * kLanes + j]), std::bit_cast<uint64_t>(y[i]))
          << "multiply row " << i << " lane " << j;
      EXPECT_EQ(std::bit_cast<uint64_t>(z_lanes[i * kLanes + j]), std::bit_cast<uint64_t>(z[i]))
          << "apply row " << i << " lane " << j;
    }
  }
  std::vector<double> out;
  EXPECT_THROW(a.multiply(interleave(x), out, 3), std::invalid_argument);
  EXPECT_THROW(ic.apply(interleave(x), out, 3), std::invalid_argument);
}

TEST(Lanes, PcgLanesMatchSeparateSolvesBitForBit) {
  // Lanes that converge at different iterations — a random right-hand
  // side, a zero one (converges at iteration 0), a smooth field and a
  // point source — against separate zero-start pcg_solve calls. Then a
  // tail block of fewer real lanes whose padding lane holds data that
  // must be ignored.
  const gnrfet::linalg::SparseMatrix a = laplacian2d(13, 9);  // 117 rows
  const size_t n = a.dim();
  gnrfet::linalg::IncompleteCholesky ic;
  ic.factor(a);
  std::vector<std::vector<double>> b(kLanes, std::vector<double>(n, 0.0));
  b[0] = random_vector(n, 401);
  for (size_t i = 0; i < n; ++i) b[2][i] = std::cos(0.05 * static_cast<double>(i));
  b[3][40] = 1.0;
  std::vector<size_t> rows;
  for (size_t i = 0; i < n; i += 5) rows.push_back(i);
  for (const size_t lanes : {kLanes, kLanes - 1}) {
    std::vector<std::vector<double>> rhs = b;
    if (lanes < kLanes) rhs[kLanes - 1] = random_vector(n, 402);  // padding
    gnrfet::linalg::PcgWorkspace ws;
    std::vector<double> x_rows;
    const auto res =
        gnrfet::linalg::pcg_solve_lanes(a, interleave(rhs), lanes, rows, x_rows, ic, ws);
    ASSERT_EQ(x_rows.size(), rows.size() * kLanes);
    std::vector<size_t> counts;
    for (size_t j = 0; j < lanes; ++j) {
      std::vector<double> x(n, 0.0);
      const auto ref = gnrfet::linalg::pcg_solve(a, rhs[j], x, ic, ws);
      ASSERT_TRUE(ref.converged) << "lane " << j;
      EXPECT_TRUE(res[j].converged) << "lane " << j;
      EXPECT_EQ(res[j].iterations, ref.iterations) << "lane " << j;
      EXPECT_EQ(res[j].residual_norm, ref.residual_norm) << "lane " << j;
      for (size_t s = 0; s < rows.size(); ++s) {
        EXPECT_EQ(std::bit_cast<uint64_t>(x_rows[s * kLanes + j]),
                  std::bit_cast<uint64_t>(x[rows[s]]))
            << "row " << rows[s] << " lane " << j;
      }
      counts.push_back(ref.iterations);
    }
    EXPECT_EQ(counts[1], 0u);  // the zero right-hand side
    EXPECT_NE(counts[0], counts[2]);
    for (size_t j = lanes; j < kLanes; ++j) {
      EXPECT_FALSE(res[j].converged);
      EXPECT_EQ(res[j].iterations, 0u);
    }
  }
}

TEST(Ic0Parallel, SharedFactorApplyIsRaceFreeAndBitIdentical) {
  // One factored IC(0) applied concurrently from 4 pool threads, one- and
  // kLanes-lane, must give the bits of a serial apply: apply() is const
  // and keeps no scratch in the preconditioner.
  const gnrfet::linalg::SparseMatrix a = laplacian2d(40, 40);
  gnrfet::linalg::IncompleteCholesky ic;
  ic.factor(a);
  constexpr size_t kVectors = 16;
  std::vector<std::vector<double>> r, serial(kVectors), parallel(kVectors);
  for (size_t v = 0; v < kVectors; ++v) {
    r.push_back(v % 2 == 0 ? random_vector(a.dim(), 500 + static_cast<unsigned>(v))
                           : interleave(random_lanes(a.dim(), 600 + static_cast<unsigned>(v))));
  }
  const auto lanes_of = [&](size_t v) { return v % 2 == 0 ? size_t{1} : kLanes; };
  for (size_t v = 0; v < kVectors; ++v) ic.apply(r[v], serial[v], lanes_of(v));
  const int old_threads = gnrfet::par::thread_count();
  gnrfet::par::set_thread_count(4);
  gnrfet::par::parallel_for_chunks(kVectors, 1, [&](size_t, size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) ic.apply(r[v], parallel[v], lanes_of(v));
  });
  gnrfet::par::set_thread_count(old_threads);
  for (size_t v = 0; v < kVectors; ++v) {
    ASSERT_EQ(parallel[v].size(), serial[v].size());
    for (size_t i = 0; i < serial[v].size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(parallel[v][i]), std::bit_cast<uint64_t>(serial[v][i]))
          << "vector " << v << " entry " << i;
    }
  }
}

/// Timed, unlike every other test: kept out of ctest by the PerfGate.*
/// filter in tests/CMakeLists.txt and run from a Release build by the
/// perf-smoke stage of tools/ci_checks.sh.
TEST(PerfGate, BlockedDenseMatvecHoldsOnePointThreeTimesTheOneRowRate) {
  // The reduced-Poisson CG product at N = 12: 496 charge nodes.
  constexpr size_t kN = 496;
  constexpr int kProducts = 200;
  const std::vector<double> a = random_vector(kN * kN, 41);
  const std::vector<double> x = random_vector(kN, 42);
  std::vector<double> y(kN);
  const auto seconds = [&](auto matvec) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < kProducts; ++k) matvec(a.data(), kN, x.data(), y.data());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  // Best of several alternated repeats of each kernel: the least
  // disturbed pass.
  double one_row_s = std::numeric_limits<double>::infinity();
  double blocked_s = one_row_s;
  for (int rep = 0; rep < 5; ++rep) {
    one_row_s = std::min(one_row_s, seconds(gnrfet::linalg::dense_matvec_one_row));
    blocked_s = std::min(blocked_s, seconds(kernels::dense_matvec));
  }
  EXPECT_GE(one_row_s / blocked_s, 1.3)
      << "one-row " << one_row_s / kProducts * 1e6 << " us, blocked "
      << blocked_s / kProducts * 1e6 << " us per product";
}

}  // namespace
