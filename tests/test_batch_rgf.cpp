#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/constants.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "gnr/modespace.hpp"
#include "linalg/dense.hpp"
#include "negf/batch_rgf.hpp"
#include "negf/scalar_rgf.hpp"
#include "negf/transport.hpp"
#include "env_guard.hpp"

namespace {

using namespace gnrfet;
using tests::EnvGuard;

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

std::vector<double> flatten(const std::vector<std::vector<double>>& m) {
  std::vector<double> f;
  for (const auto& row : m) f.insert(f.end(), row.begin(), row.end());
  return f;
}

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

struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) : old_(par::thread_count()) { par::set_thread_count(n); }
  ~ThreadCountGuard() { par::set_thread_count(old_); }
  int old_;
};

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

/// The fixed mode-space problem behind the PR-5 uniform golden pin
/// (mirrors test_adaptive.cpp's GoldenProblem).
struct GoldenProblem {
  gnr::ModeSet modes = gnr::build_mode_set(12, {2.7, 0.12}, 3);
  std::vector<std::vector<double>> u;
  negf::TransportOptions opts;

  GoldenProblem() {
    const size_t ncol = 32;
    u.assign(ncol, std::vector<double>(12, 0.0));
    for (size_t c = 0; c < ncol; ++c) {
      const double x = static_cast<double>(c) / static_cast<double>(ncol - 1);
      for (size_t j = 0; j < 12; ++j) {
        u[c][j] = -0.3 - 0.4 * x + 0.02 * std::cos(0.7 * static_cast<double>(j));
      }
    }
    opts.mu_drain_eV = -0.4;
    opts.energy_step_eV = 2e-3;
  }
};

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
  // transmission_reverse comes from an independent right-connected sweep
  // in every build, checks on or off: reciprocity holds to roundoff, both
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

TEST(BatchRgf, EnvKnobDefaultsOnAndValidates) {
  {
    EnvGuard guard("GNRFET_RGF_BATCH", nullptr);
    EXPECT_TRUE(negf::rgf_batch_enabled());
  }
  {
    EnvGuard guard("GNRFET_RGF_BATCH", "on");
    EXPECT_TRUE(negf::rgf_batch_enabled());
  }
  {
    EnvGuard guard("GNRFET_RGF_BATCH", "off");
    EXPECT_FALSE(negf::rgf_batch_enabled());
  }
  {
    EnvGuard guard("GNRFET_RGF_BATCH", "vectorize-harder");
    EXPECT_THROW(negf::rgf_batch_enabled(), std::invalid_argument);
  }
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
  negf::fermi_factors(e.data(), e.size(), -0.23, constants::kThermalVoltage300K, f.data());
  for (size_t k = 0; k < e.size(); ++k) {
    EXPECT_BITS_EQ(f[k], constants::fermi(e[k] - (-0.23), constants::kThermalVoltage300K));
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
  // The cache-blocked CMatrix overloads must reproduce the template
  // kernels bit-for-bit, zero-skip rows included.
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
    linalg::multiply_into(blocked, a, b);  // non-template overload
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
  // The PR-5 uniform golden pins must hold on both sides of the knob:
  // GNRFET_RGF_BATCH=off is the legacy path by construction, and the
  // batched default must match it bit-for-bit.
  for (const char* knob : {"off", "on"}) {
    EnvGuard batch("GNRFET_RGF_BATCH", knob);
    EnvGuard grid("GNRFET_NEGF_GRID", "uniform");
    GoldenProblem p;
    const auto sol = negf::solve_mode_space(p.modes, p.u, p.opts);
    EXPECT_EQ(sol.current_A, 0x1.12e6388bc3c3cp-17) << "knob=" << knob;
    EXPECT_EQ(sol.current_drain_A, 0x1.12e6388bc3c3bp-17) << "knob=" << knob;
    EXPECT_EQ(sol.total_net_electrons, 0x1.44d1522dd0c06p+1) << "knob=" << knob;
    EXPECT_EQ(sol.energies_eV.size(), 613u) << "knob=" << knob;
    EXPECT_EQ(fnv1a(sol.energies_eV), 0x6b11046d548574f5ull) << "knob=" << knob;
    EXPECT_EQ(fnv1a(sol.transmission), 0x71b5bb6f38984168ull) << "knob=" << knob;
    EXPECT_EQ(fnv1a(flatten(sol.electrons)), 0xc8e0b403a2f0723eull) << "knob=" << knob;
    EXPECT_EQ(fnv1a(flatten(sol.holes)), 0xc3839b255526531eull) << "knob=" << knob;
  }
}

TEST(BatchGolden, AdaptiveSolutionInvariantUnderBatchKnob) {
  // The adaptive integrator batches the Simpson stencil evaluations per
  // refinement round; the knob must not move a single bit of the result.
  GoldenProblem p;
  EnvGuard grid("GNRFET_NEGF_GRID", "adaptive");
  std::vector<uint64_t> hashes;
  std::vector<double> currents;
  for (const char* knob : {"off", "on"}) {
    EnvGuard batch("GNRFET_RGF_BATCH", knob);
    const auto sol = negf::solve_mode_space(p.modes, p.u, p.opts);
    hashes.push_back(fnv1a(sol.transmission));
    hashes.push_back(fnv1a(sol.energies_eV));
    hashes.push_back(fnv1a(flatten(sol.electrons)));
    currents.push_back(sol.current_A);
    currents.push_back(sol.current_drain_A);
  }
  EXPECT_EQ(hashes[0], hashes[3]);
  EXPECT_EQ(hashes[1], hashes[4]);
  EXPECT_EQ(hashes[2], hashes[5]);
  EXPECT_BITS_EQ(currents[0], currents[2]);
  EXPECT_BITS_EQ(currents[1], currents[3]);
}

TEST(BatchRgfParallel, AdaptiveBatchedBitIdenticalAcrossThreadCounts) {
  // Thread-determinism contract for the batched adaptive path (also the
  // TSan coverage of the batched hot loop via the CI -R 'Parallel' run):
  // GNRFET_THREADS=1/4/16 must produce identical bits.
  GoldenProblem p;
  EnvGuard batch("GNRFET_RGF_BATCH", "on");
  EnvGuard grid("GNRFET_NEGF_GRID", "adaptive");
  std::vector<double> currents;
  std::vector<uint64_t> hashes;
  for (const int threads : {1, 4, 16}) {
    ThreadCountGuard tg(threads);
    const auto sol = negf::solve_mode_space(p.modes, p.u, p.opts);
    currents.push_back(sol.current_A);
    hashes.push_back(fnv1a(sol.transmission));
    hashes.push_back(fnv1a(flatten(sol.electrons)));
  }
  EXPECT_BITS_EQ(currents[0], currents[1]);
  EXPECT_BITS_EQ(currents[0], currents[2]);
  EXPECT_EQ(hashes[0], hashes[2]);
  EXPECT_EQ(hashes[0], hashes[4]);
  EXPECT_EQ(hashes[1], hashes[3]);
  EXPECT_EQ(hashes[1], hashes[5]);
}

TEST(BatchRgfParallel, UniformBatchedBitIdenticalAcrossThreadCounts) {
  GoldenProblem p;
  EnvGuard batch("GNRFET_RGF_BATCH", "on");
  EnvGuard grid("GNRFET_NEGF_GRID", "uniform");
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

}  // namespace
