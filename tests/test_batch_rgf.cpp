#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/constants.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "linalg/dense.hpp"
#include "negf/batch_rgf.hpp"
#include "negf/transport.hpp"
#include "golden.hpp"
#include "support/negf_oracles.hpp"
#include "test_support.hpp"

namespace {

using namespace gnrfet;
using tests::flatten;
using tests::fnv1a;
using tests::GoldenProblem;
using tests::ThreadCountGuard;

/// Bitwise double equality: EXPECT_EQ on doubles treats +0.0 == -0.0, but
/// the batch determinism contract is bit-for-bit, signs of zero included.
::testing::AssertionResult bits_eq(const char* a_expr, const char* b_expr, double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a_expr << " = " << a << " (0x" << std::hex << std::bit_cast<uint64_t>(a) << ") vs "
         << b_expr << " = " << b << " (0x" << std::bit_cast<uint64_t>(b) << ")";
}
#define EXPECT_BITS_EQ(a, b) EXPECT_PRED_FORMAT2(bits_eq, a, b)

/// Deterministic chain family: alternating SSH-like hoppings with an
/// incommensurate onsite modulation, asymmetric contacts.
negf::ScalarChain make_chain(size_t n, unsigned seed) {
  negf::ScalarChain chain;
  chain.onsite.resize(n);
  chain.hopping.resize(n - 1);
  for (size_t i = 0; i < n; ++i) {
    chain.onsite[i] =
        0.15 * std::sin(0.73 * static_cast<double>(i) + 0.31 * static_cast<double>(seed));
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    chain.hopping[i] = (i % 2 == 0) ? -2.7 : -1.4 - 0.05 * static_cast<double>(seed);
  }
  chain.gamma_left = 0.9 + 0.07 * static_cast<double>(seed);
  chain.gamma_right = 0.6;
  return chain;
}

std::vector<double> make_energies(size_t count, unsigned seed) {
  std::vector<double> e(count);
  for (size_t k = 0; k < count; ++k) {
    e[k] = -1.2 + 2.9 * static_cast<double>(k) / static_cast<double>(count) +
           1e-3 * static_cast<double>(seed);
  }
  return e;
}

TEST(BatchRgf, BitExactVsScalarAcrossChainAndBatchSizes) {
  // The core determinism contract: every lane of the batched kernel is
  // bit-identical to the per-energy scalar solve — all widths 1..9 (one
  // full 8-lane group plus every ragged remainder), chains from the 2-site
  // minimum up past typical device lengths.
  negf::ScalarRgfBatchWorkspace ws;
  negf::ScalarRgfBatchResult out;
  for (const size_t n : {size_t{2}, size_t{3}, size_t{5}, size_t{12}, size_t{33}}) {
    const auto chain = make_chain(n, static_cast<unsigned>(n));
    for (size_t count = 1; count <= 9; ++count) {
      const auto e = make_energies(count, static_cast<unsigned>(count));
      negf::scalar_rgf_solve_batch(chain, e.data(), count, 1e-4, ws, out);
      ASSERT_EQ(out.lanes(), count);
      ASSERT_EQ(out.spectral_left.size(), n * count);
      for (size_t k = 0; k < count; ++k) {
        const auto ref = negf::scalar_rgf_solve(chain, e[k], 1e-4);
        EXPECT_BITS_EQ(out.transmission[k], ref.transmission);
        EXPECT_BITS_EQ(out.transmission_reverse[k], ref.transmission_reverse);
        for (size_t c = 0; c < n; ++c) {
          EXPECT_BITS_EQ(out.spectral_left_row(c)[k], ref.spectral_left[c]);
          EXPECT_BITS_EQ(out.spectral_right_row(c)[k], ref.spectral_right[c]);
        }
      }
    }
  }
}

TEST(BatchRgf, ReverseTransmissionContract) {
  // transmission_reverse comes from an independent right-connected sweep:
  // reciprocity holds to roundoff, both
  // kernels agree bit-for-bit, and the bits generically differ from the
  // forward value somewhere in a sweep.
  const auto chain = make_chain(21, 3);
  const auto e = make_energies(64, 0);
  negf::ScalarRgfBatchWorkspace ws;
  negf::ScalarRgfBatchResult out;
  negf::scalar_rgf_solve_batch(chain, e.data(), e.size(), 1e-4, ws, out);
  size_t bitwise_diffs = 0;
  for (size_t k = 0; k < e.size(); ++k) {
    const auto ref = negf::scalar_rgf_solve(chain, e[k], 1e-4);
    EXPECT_BITS_EQ(out.transmission_reverse[k], ref.transmission_reverse);
    const double t = out.transmission[k];
    const double trev = out.transmission_reverse[k];
    EXPECT_LE(std::abs(t - trev), 1e-6 * (t + trev + 1e-9));
    if (std::bit_cast<uint64_t>(t) != std::bit_cast<uint64_t>(trev)) ++bitwise_diffs;
  }
  // Independently computed, not copied: at least one energy in the sweep
  // must land on different bits.
  EXPECT_GT(bitwise_diffs, 0u);
}

TEST(BatchRgf, RejectsDegenerateInputs) {
  negf::ScalarRgfBatchWorkspace ws;
  negf::ScalarRgfBatchResult out;
  const auto chain = make_chain(4, 1);
  const double e = 0.1;
  EXPECT_THROW(negf::scalar_rgf_solve_batch(chain, &e, 0, 1e-4, ws, out), std::invalid_argument);
  negf::ScalarChain one;
  one.onsite.assign(1, 0.0);
  EXPECT_THROW(negf::scalar_rgf_solve_batch(one, &e, 1, 1e-4, ws, out), std::invalid_argument);
  negf::ScalarChain bad = chain;
  bad.hopping.pop_back();
  EXPECT_THROW(negf::scalar_rgf_solve_batch(bad, &e, 1, 1e-4, ws, out), std::invalid_argument);
}

TEST(BatchRgf, FermiFactorsMatchPerEnergyCalls) {
  const auto e = make_energies(37, 5);
  std::vector<double> f(e.size());
  negf::fermi_factors(e.data(), e.size(), -0.23, constants::kRoomTemperatureKT_eV, f.data());
  for (size_t k = 0; k < e.size(); ++k) {
    EXPECT_BITS_EQ(f[k], constants::fermi(e[k] - (-0.23), constants::kRoomTemperatureKT_eV));
  }
}

TEST(BatchRgf, RecordsBatchMetrics) {
  const auto chain = make_chain(8, 2);
  const auto e = make_energies(5, 1);
  negf::ScalarRgfBatchWorkspace ws;
  negf::ScalarRgfBatchResult out;
  const auto before = metrics::snapshot();
  negf::scalar_rgf_solve_batch(chain, e.data(), e.size(), 1e-4, ws, out);
  const auto after = metrics::snapshot();
  const auto solves = static_cast<size_t>(metrics::Counter::kRgfBatchSolves);
  const auto width = static_cast<size_t>(metrics::Histogram::kRgfBatchWidth);
  EXPECT_EQ(after.counters[solves] - before.counters[solves], 1u);
  EXPECT_EQ(after.histograms[width].count - before.histograms[width].count, 1u);
  EXPECT_EQ(after.histograms[width].sum - before.histograms[width].sum, 5.0);
}

TEST(BatchRgfRealSpace, BlockedMultiplyBitIdenticalToTemplate) {
  // The cache-blocked CMatrix kernels must reproduce Matrix::operator*
  // and adjoint() bit-for-bit, zero-skip rows included.
  for (const size_t n : {size_t{1}, size_t{7}, size_t{18}, size_t{36}, size_t{50}}) {
    linalg::CMatrix a(n, n), b(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if ((i + j) % 5 == 0) continue;  // leave exact zeros for the skip path
        a(i, j) = linalg::cplx(std::sin(0.3 * static_cast<double>(i * n + j)),
                               std::cos(0.7 * static_cast<double>(i + 2 * j)));
        b(i, j) = linalg::cplx(std::cos(0.11 * static_cast<double>(i * n + j)),
                               std::sin(0.51 * static_cast<double>(3 * i + j)));
      }
    }
    linalg::CMatrix blocked, adj;
    linalg::multiply_into(blocked, a, b);
    linalg::adjoint_into(adj, a);
    const linalg::CMatrix ref = a * b;
    const linalg::CMatrix refadj = a.adjoint();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        EXPECT_BITS_EQ(blocked(i, j).real(), ref(i, j).real());
        EXPECT_BITS_EQ(blocked(i, j).imag(), ref(i, j).imag());
        EXPECT_BITS_EQ(adj(i, j).real(), refadj(i, j).real());
        EXPECT_BITS_EQ(adj(i, j).imag(), refadj(i, j).imag());
      }
    }
  }
}

TEST(BatchGolden, UniformGoldenPinsHoldWithBatchOnAndOff) {
  // The uniform golden pins, captured from the per-energy kernel, must
  // hold bit-for-bit on the batched kernel that now serves every
  // mode-space solve.
  GoldenProblem p;
  const auto sol = negf::solve_mode_space(p.modes, p.u, p.opts);
  EXPECT_EQ(sol.current_A, 0x1.12e6388bc3c3cp-17);
  EXPECT_EQ(sol.current_drain_A, 0x1.12e6388bc3c3bp-17);
  EXPECT_EQ(sol.total_net_electrons, 0x1.44d1522dd0c06p+1);
  EXPECT_EQ(sol.energies_eV.size(), 613u);
  EXPECT_EQ(fnv1a(sol.energies_eV), 0x6b11046d548574f5ull);
  EXPECT_EQ(fnv1a(sol.transmission), 0x71b5bb6f38984168ull);
  EXPECT_EQ(fnv1a(flatten(sol.electrons)), 0xc8e0b403a2f0723eull);
  EXPECT_EQ(fnv1a(flatten(sol.holes)), 0xc3839b255526531eull);
}

TEST(BatchRgfParallel, UniformBatchedBitIdenticalAcrossThreadCounts) {
  // Thread-determinism contract of the batched mode-space path (also the
  // TSan coverage of the batched hot loop via the CI -R 'Parallel' run).
  GoldenProblem p;
  std::vector<double> currents;
  std::vector<uint64_t> hashes;
  for (const int threads : {1, 4}) {
    ThreadCountGuard tg(threads);
    const auto sol = negf::solve_mode_space(p.modes, p.u, p.opts);
    currents.push_back(sol.current_A);
    hashes.push_back(fnv1a(sol.transmission));
  }
  EXPECT_BITS_EQ(currents[0], currents[1]);
  EXPECT_EQ(hashes[0], hashes[1]);
}

/// Timed, unlike every other test: kept out of ctest by the PerfGate.*
/// filter in tests/CMakeLists.txt and run from a Release build by the
/// perf-smoke stage of tools/ci_checks.sh.
TEST(PerfGate, BatchedRgfHoldsOneAndAHalfTimesTheScalarSolveRate) {
  EXPECT_TRUE(negf::rgf_batch_uses_fast_reciprocal());
  // The subband chains of a fig2-style source-drain ramp family: 3 drain
  // biases x 3 subbands of 32 columns, each solved at 304 energies.
  constexpr size_t kColumns = 32;
  std::vector<negf::ScalarChain> chains;
  for (int i = 0; i < 3; ++i) {
    const double vd = 0.05 + 0.225 * static_cast<double>(i);
    for (int j = 0; j < 3; ++j) {
      negf::ScalarChain c;
      c.onsite.resize(kColumns);
      c.hopping.resize(kColumns - 1);
      for (size_t col = 0; col < kColumns; ++col) {
        const double x = static_cast<double>(col) / static_cast<double>(kColumns - 1);
        c.onsite[col] = -0.3 - vd * x + 0.02 * std::cos(0.7 * static_cast<double>(j));
      }
      for (size_t col = 0; col + 1 < kColumns; ++col) c.hopping[col] = col % 2 == 0 ? -2.7 : -2.43;
      c.gamma_left = 0.05;
      c.gamma_right = 0.05;
      chains.push_back(std::move(c));
    }
  }
  std::vector<double> energies(304);
  for (size_t k = 0; k < energies.size(); ++k) {
    energies[k] = -0.9 + 1.2 * static_cast<double>(k) / static_cast<double>(energies.size() - 1);
  }
  constexpr double kEta = 1e-4;

  negf::ScalarRgfWorkspace scalar_ws;
  negf::ScalarRgfResult scalar_out;
  negf::ScalarRgfBatchWorkspace batch_ws;
  negf::ScalarRgfBatchResult batch_out;
  const auto seconds = [](const auto& pass) {
    const auto t0 = std::chrono::steady_clock::now();
    pass();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  // Best of several repeats of each path: the least disturbed pass.
  double scalar_s = std::numeric_limits<double>::infinity();
  double batch_s = scalar_s;
  for (int rep = 0; rep < 5; ++rep) {
    scalar_s = std::min(scalar_s, seconds([&] {
      for (const auto& chain : chains) {
        for (const double e : energies) negf::scalar_rgf_solve(chain, e, kEta, scalar_ws, scalar_out);
      }
    }));
    batch_s = std::min(batch_s, seconds([&] {
      for (const auto& chain : chains) {
        for (size_t k0 = 0; k0 < energies.size(); k0 += negf::kRgfBatchLanes) {
          const size_t nb = std::min(negf::kRgfBatchLanes, energies.size() - k0);
          negf::scalar_rgf_solve_batch(chain, energies.data() + k0, nb, kEta, batch_ws, batch_out);
        }
      }
    }));
  }
  EXPECT_GE(scalar_s / batch_s, 1.5) << "scalar " << scalar_s << " s, batched " << batch_s << " s";
}

}  // namespace
