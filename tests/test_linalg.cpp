#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>

#include "linalg/dense.hpp"
#include "linalg/eig.hpp"
#include "linalg/kernels.hpp"
#include "linalg/lu.hpp"
#include "linalg/pcg.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sparse.hpp"

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
  const auto x = gnrfet::linalg::LU(a).solve(b);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-9);
}

TEST(LU, InverseTimesMatrixIsIdentity) {
  const CMatrix a = random_matrix(10, 4);
  const CMatrix ainv = gnrfet::linalg::inverse(a);
  const CMatrix prod = a * ainv;
  const CMatrix eye = CMatrix::identity(10);
  CMatrix diff = prod;
  diff -= eye;
  EXPECT_LT(gnrfet::linalg::frobenius_norm(diff), 1e-9);
}

TEST(LU, SingularThrows) {
  CMatrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;  // row/col 2 all zero
  EXPECT_THROW(gnrfet::linalg::LU lu(a), std::runtime_error);
}

TEST(LU, RealSolve) {
  DMatrix a(3, 3);
  a(0, 0) = 4;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  a(2, 2) = 2;
  const std::vector<double> b = {1.0, 2.0, 4.0};
  const auto x = gnrfet::linalg::LU(a).solve(b);
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
    const std::vector<double> fresh = gnrfet::linalg::LU(*a).solve(b);
    ASSERT_EQ(x.size(), fresh.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(x[i]), std::bit_cast<uint64_t>(fresh[i])) << i;
    }
  }
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

TEST(Sparse, AddToDiagonal) {
  gnrfet::linalg::SparseBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  gnrfet::linalg::SparseMatrix m(b);
  m.add_to_diagonal(0, 5.0);
  std::vector<double> y;
  m.multiply({1.0, 0.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
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
  const auto res = gnrfet::linalg::pcg_solve(a, rhs, x);
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
  const auto res = gnrfet::linalg::pcg_solve(a, rhs, x);
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

// --- Sparse diagonal-retarget API ------------------------------------------

TEST(Sparse, SetDiagonalMatchesCopyPlusAddToDiagonal) {
  // The Newton loop uses set_diagonal(base - dq) on a persistent Jacobian;
  // the legacy path copied A and called add_to_diagonal(-dq). Both must
  // land on the same bits.
  gnrfet::linalg::SparseBuilder b(3);
  b.add(0, 0, 2.0);
  b.add(0, 1, -1.0);
  b.add(1, 0, -1.0);
  b.add(1, 1, 2.0);
  b.add(2, 2, 1.5);
  const gnrfet::linalg::SparseMatrix a(b);
  gnrfet::linalg::SparseMatrix legacy = a;
  gnrfet::linalg::SparseMatrix persistent = a;
  const double dq[] = {0.37, -1.25e-3, 7.5};
  for (size_t i = 0; i < 3; ++i) legacy.add_to_diagonal(i, dq[i]);
  const double base[] = {2.0, 2.0, 1.5};
  for (size_t i = 0; i < 3; ++i) persistent.set_diagonal(i, base[i] + dq[i]);
  ASSERT_EQ(legacy.values().size(), persistent.values().size());
  for (size_t k = 0; k < legacy.values().size(); ++k) {
    EXPECT_EQ(legacy.values()[k], persistent.values()[k]);
  }
  EXPECT_DOUBLE_EQ(persistent.diagonal_at(1), 2.0 - 1.25e-3);
}

TEST(Sparse, RestoreValuesRoundTripAndMismatchThrows) {
  gnrfet::linalg::SparseBuilder b(2);
  b.add(0, 0, 4.0);
  b.add(1, 1, 9.0);
  gnrfet::linalg::SparseMatrix m(b);
  const std::vector<double> pristine = m.values();
  m.set_diagonal(0, -100.0);
  m.restore_values(pristine);
  EXPECT_EQ(m.values(), pristine);
  EXPECT_THROW(m.restore_values({1.0}), std::invalid_argument);
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
  // The Newton loop only moves the Jacobian diagonal, then calls
  // refactor(); the result must match a from-scratch factorization of the
  // updated matrix bit-for-bit (same pattern, same numeric loop).
  gnrfet::linalg::SparseMatrix a = laplacian2d(4, 4);
  gnrfet::linalg::IncompleteCholesky reused;
  reused.factor(a);
  for (size_t i = 0; i < a.dim(); ++i) {
    a.set_diagonal(i, 4.0 + 0.01 * static_cast<double>(i));
  }
  reused.refactor(a);
  gnrfet::linalg::IncompleteCholesky fresh;
  fresh.factor(a);
  const auto r = random_vector(a.dim(), 51);
  std::vector<double> z_reused, z_fresh;
  reused.apply(r, z_reused);
  fresh.apply(r, z_fresh);
  for (size_t i = 0; i < a.dim(); ++i) EXPECT_EQ(z_reused[i], z_fresh[i]);
}

TEST(Preconditioner, FactoryParsesKnownNamesAndRejectsUnknown) {
  using gnrfet::linalg::PreconditionerKind;
  EXPECT_EQ(gnrfet::linalg::preconditioner_kind_from_string("jacobi"),
            PreconditionerKind::kJacobi);
  EXPECT_EQ(gnrfet::linalg::preconditioner_kind_from_string("ic0"), PreconditionerKind::kIc0);
  // Names of the deleted preconditioners are rejected like any unknown
  // name, and the message names the two that remain.
  for (const char* gone : {"cholmod", "ssor", "mg"}) {
    try {
      gnrfet::linalg::preconditioner_kind_from_string(gone);
      ADD_FAILURE() << gone << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ic0"), std::string::npos) << what;
      EXPECT_NE(what.find("jacobi"), std::string::npos) << what;
    }
  }
  for (const auto kind : {PreconditionerKind::kJacobi, PreconditionerKind::kIc0}) {
    const auto pc = gnrfet::linalg::make_preconditioner(kind);
    EXPECT_STREQ(pc->name(), gnrfet::linalg::to_string(kind));
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
    gnrfet::linalg::PcgOptions opts;
    opts.preconditioner = pc.get();
    std::vector<double> x(a.dim(), 0.0);
    const auto res = gnrfet::linalg::pcg_solve(a, rhs, x, opts);
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

TEST(Pcg, WorkspaceReuseIsBitIdenticalToFreshVectors) {
  const gnrfet::linalg::SparseMatrix a = laplacian2d(10, 10);
  gnrfet::linalg::IncompleteCholesky ic;
  ic.factor(a);
  gnrfet::linalg::PcgOptions reuse_opts;
  reuse_opts.preconditioner = &ic;
  gnrfet::linalg::PcgWorkspace ws;
  reuse_opts.workspace = &ws;
  gnrfet::linalg::PcgOptions fresh_opts = reuse_opts;
  fresh_opts.workspace = nullptr;
  for (const unsigned seed : {71u, 72u, 73u}) {
    const auto rhs = random_vector(a.dim(), seed);
    std::vector<double> x_reuse(a.dim(), 0.0), x_fresh(a.dim(), 0.0);
    const auto r1 = gnrfet::linalg::pcg_solve(a, rhs, x_reuse, reuse_opts);
    const auto r2 = gnrfet::linalg::pcg_solve(a, rhs, x_fresh, fresh_opts);
    EXPECT_EQ(r1.iterations, r2.iterations);
    for (size_t i = 0; i < a.dim(); ++i) EXPECT_EQ(x_reuse[i], x_fresh[i]);
  }
}

}  // namespace
