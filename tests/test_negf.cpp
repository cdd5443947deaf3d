#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "common/metrics.hpp"
#include "gnr/hamiltonian.hpp"
#include "gnr/lattice.hpp"
#include "gnr/modespace.hpp"
#include "negf/energygrid.hpp"
#include "negf/rgf.hpp"
#include "negf/selfenergy.hpp"
#include "negf/transport.hpp"
#include "golden.hpp"
#include "support/gnr_oracles.hpp"
#include "support/negf_oracles.hpp"
#include "test_support.hpp"

namespace {

using namespace gnrfet;
using tests::flatten;
using tests::fnv1a;
using gnr::Lattice;
using gnr::TightBindingParams;

TEST(EnergyGrid, TrapezoidIntegratesLinear) {
  const auto g = negf::make_energy_grid(0.0, 1.0, 0.01);
  double integral = 0.0;
  for (size_t i = 0; i < g.points.size(); ++i) integral += g.weights[i] * (2.0 * g.points[i]);
  EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(SelfEnergy, WideBandBroadeningIsGammaIdentity) {
  const auto sig = negf::wide_band_self_energy(4, 0.8);
  const auto gam = negf::broadening(sig);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(gam(i, j).real(), i == j ? 0.8 : 0.0, 1e-14);
      EXPECT_NEAR(gam(i, j).imag(), 0.0, 1e-14);
    }
  }
}

TEST(SelfEnergy, SanchoRubioMatchesAnalytic1DChain) {
  // Semi-infinite 1D chain, onsite 0, hopping -t: surface GF
  // g(E) = (E - sqrt(E^2 - 4t^2)) / (2 t^2) (retarded branch).
  const double t = 1.0;
  linalg::CMatrix h00(1, 1), h01(1, 1);
  h01(0, 0) = -t;
  for (double e : {-1.5, -0.5, 0.0, 0.7, 1.9}) {
    const auto g = negf::sancho_rubio_surface_gf(linalg::cplx(e, 1e-9), h00, h01);
    const linalg::cplx z(e, 1e-9);
    const linalg::cplx root = std::sqrt(z * z - 4.0 * t * t);
    // Retarded branch: Im g < 0 inside the band.
    linalg::cplx expected = (z - root) / (2.0 * t * t);
    if (expected.imag() > 1e-6) expected = (z + root) / (2.0 * t * t);
    EXPECT_NEAR(std::abs(g(0, 0) - expected), 0.0, 1e-4) << "E=" << e;  // 1e-6 Im(E) floor
  }
}

TEST(Rgf, MatchesDenseReference) {
  const Lattice lat = Lattice::armchair(9, 8, 0.12);
  std::vector<double> onsite(lat.atoms().size());
  for (size_t i = 0; i < onsite.size(); ++i) {
    onsite[i] = 0.05 * std::sin(0.37 * static_cast<double>(i));
  }
  const auto h = gnr::build_hamiltonian(lat, {2.7, 0.12}, onsite);
  const auto sl = negf::wide_band_self_energy(h.diag.front().rows(), 0.9);
  const auto sr = negf::wide_band_self_energy(h.diag.back().rows(), 1.1);
  for (double e : {-0.6, -0.1, 0.4, 1.2}) {
    const auto fast = tests::rgf_solve(h, e, 1e-4, sl, sr);
    const auto ref = negf::dense_reference_solve(h, e, 1e-4, sl, sr);
    EXPECT_NEAR(fast.transmission, ref.transmission, 1e-8 * std::max(1.0, ref.transmission));
    ASSERT_EQ(fast.spectral_total.size(), ref.spectral_total.size());
    for (size_t k = 0; k < fast.spectral_total.size(); ++k) {
      EXPECT_NEAR(fast.spectral_total[k], ref.spectral_total[k], 1e-7);
      EXPECT_NEAR(fast.spectral_right[k], ref.spectral_right[k], 1e-7);
    }
  }
}

TEST(Rgf, TransmissionSymmetricUnderContactSwap) {
  const Lattice lat = Lattice::armchair(12, 6, 0.12);
  const auto h = gnr::build_hamiltonian(lat, {2.7, 0.12});
  const auto s1 = negf::wide_band_self_energy(h.diag.front().rows(), 1.0);
  const auto s2 = negf::wide_band_self_energy(h.diag.back().rows(), 1.0);
  const auto r = tests::rgf_solve(h, 0.45, 1e-4, s1, s2);
  // Reverse the device: same ribbon mirrored; T must be identical.
  gnr::BlockTridiagonal hr;
  for (size_t i = h.diag.size(); i-- > 0;) hr.diag.push_back(h.diag[i]);
  for (size_t i = h.upper.size(); i-- > 0;) hr.upper.push_back(h.upper[i].adjoint());
  const auto rr = tests::rgf_solve(hr, 0.45, 1e-4, s2, s1);
  EXPECT_NEAR(r.transmission, rr.transmission, 1e-9);
}

TEST(ScalarRgf, MatchesBlockRgfOnUniformChain) {
  // A 1-orbital chain as a BlockTridiagonal with 1x1 blocks must agree
  // with the scalar fast path exactly.
  const size_t n = 30;
  negf::ScalarChain chain;
  chain.onsite.assign(n, 0.0);
  chain.hopping.assign(n - 1, 0.0);
  for (size_t i = 0; i < n; ++i) chain.onsite[i] = 0.1 * std::cos(0.3 * static_cast<double>(i));
  for (size_t i = 0; i + 1 < n; ++i) chain.hopping[i] = (i % 2 == 0) ? -2.7 : -1.4;
  chain.gamma_left = 1.0;
  chain.gamma_right = 0.7;

  gnr::BlockTridiagonal h;
  for (size_t i = 0; i < n; ++i) {
    linalg::CMatrix d(1, 1);
    d(0, 0) = chain.onsite[i];
    h.diag.push_back(d);
  }
  for (size_t i = 0; i + 1 < n; ++i) {
    linalg::CMatrix u(1, 1);
    u(0, 0) = chain.hopping[i];
    h.upper.push_back(u);
  }
  const auto sl = negf::wide_band_self_energy(1, chain.gamma_left);
  const auto sr = negf::wide_band_self_energy(1, chain.gamma_right);
  for (double e : {-1.0, 0.0, 0.9, 2.2}) {
    const auto a = negf::scalar_rgf_solve(chain, e, 1e-4);
    const auto b = tests::rgf_solve(h, e, 1e-4, sl, sr);
    EXPECT_NEAR(a.transmission, b.transmission, 1e-10);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(a.spectral_total[i], b.spectral_total[i], 1e-9);
      EXPECT_NEAR(a.spectral_right[i], b.spectral_right[i], 1e-9);
    }
  }
}

TEST(ScalarRgf, TransmissionBoundedByOne) {
  // A single scalar channel cannot transmit more than one quantum.
  negf::ScalarChain chain;
  chain.onsite.assign(40, 0.0);
  chain.hopping.assign(39, -2.0);
  chain.gamma_left = chain.gamma_right = 1.5;
  for (double e = -3.0; e <= 3.0; e += 0.1) {
    const auto r = negf::scalar_rgf_solve(chain, e, 1e-6);
    EXPECT_LE(r.transmission, 1.0 + 1e-9);
    EXPECT_GE(r.transmission, -1e-12);
  }
}

TEST(Transport, ZeroBiasZeroCurrent) {
  const auto modes = gnr::build_mode_set(12, {2.7, 0.12}, 2);
  const size_t ncol = 24;
  std::vector<std::vector<double>> u(ncol, std::vector<double>(12, 0.0));
  negf::TransportOptions opt;
  opt.mu_drain_eV = 0.0;
  opt.energy_step_eV = 5e-3;
  const auto sol = negf::solve_mode_space(modes, u, opt);
  EXPECT_NEAR(sol.current_A, 0.0, 1e-15);
}

TEST(Transport, ChargeNeutralAtMidgapAlignment) {
  // With both contacts at the mid-gap of a flat ribbon, electron and hole
  // populations cancel by particle-hole symmetry.
  const auto modes = gnr::build_mode_set(12, {2.7, 0.0}, 3);
  const size_t ncol = 30;
  std::vector<std::vector<double>> u(ncol, std::vector<double>(12, 0.0));
  negf::TransportOptions opt;
  opt.energy_step_eV = 2e-3;
  const auto sol = negf::solve_mode_space(modes, u, opt);
  EXPECT_NEAR(sol.total_net_electrons, 0.0, 0.05);
}

TEST(Transport, GatePotentialInducesElectrons) {
  // Pushing the bands down (negative U) fills the conduction band.
  const auto modes = gnr::build_mode_set(12, {2.7, 0.12}, 3);
  const size_t ncol = 30;
  std::vector<std::vector<double>> u(ncol, std::vector<double>(12, -0.5));
  // Keep contact ends near zero like a real SBFET.
  for (size_t j = 0; j < 12; ++j) {
    u[0][j] = u[ncol - 1][j] = 0.0;
    u[1][j] = u[ncol - 2][j] = -0.25;
  }
  negf::TransportOptions opt;
  opt.energy_step_eV = 2e-3;
  const auto sol = negf::solve_mode_space(modes, u, opt);
  EXPECT_GT(sol.total_net_electrons, 0.5);
}

TEST(Transport, CurrentIncreasesWithDrainBias) {
  const auto modes = gnr::build_mode_set(12, {2.7, 0.12}, 3);
  const size_t ncol = 30;
  std::vector<std::vector<double>> u(ncol, std::vector<double>(12, -0.3));
  negf::TransportOptions opt;
  opt.energy_step_eV = 2e-3;
  double prev = 0.0;
  for (double vd : {0.1, 0.3, 0.5}) {
    opt.mu_drain_eV = -vd;
    // Linear potential drop along the channel, like the real device.
    for (size_t c = 0; c < ncol; ++c) {
      const double x = static_cast<double>(c) / static_cast<double>(ncol - 1);
      for (size_t j = 0; j < 12; ++j) u[c][j] = -0.3 - vd * x;
    }
    const auto sol = negf::solve_mode_space(modes, u, opt);
    EXPECT_GT(sol.current_A, prev);
    prev = sol.current_A;
  }
  // On-state current should be in the micro-ampere range (paper Fig. 2).
  EXPECT_GT(prev, 1e-7);
  EXPECT_LT(prev, 1e-4);
}

TEST(Transport, ModeSpaceMatchesRealSpaceIV) {
  // Integration-level check: flat-potential ribbon, same contacts, both
  // solvers should give close currents (uncoupled mode space is exact for
  // transverse-uniform potentials up to the edge-relaxation coupling).
  const TightBindingParams p{2.7, 0.12};
  const int n = 9;
  const int slices = 12;
  const Lattice lat = Lattice::armchair(n, slices, p.edge_delta);
  std::vector<double> onsite(lat.atoms().size(), -0.45);
  negf::TransportOptions opt;
  opt.mu_drain_eV = -0.3;
  opt.energy_step_eV = 2e-3;
  const auto real = negf::solve_real_space(lat, p, onsite, opt);

  const auto modes = gnr::build_mode_set(n, p, n);
  std::vector<std::vector<double>> u(static_cast<size_t>(2 * slices),
                                     std::vector<double>(static_cast<size_t>(n), -0.45));
  const auto mode = negf::solve_mode_space(modes, u, opt);
  EXPECT_NEAR(mode.current_A, real.current_A,
              0.15 * std::abs(real.current_A) + 1e-9);
  EXPECT_NEAR(mode.total_net_electrons, real.total_net_electrons,
              0.15 * std::abs(real.total_net_electrons) + 0.05);
}

TEST(RealSpaceGolden, AblationLatticeBitIdentical) {
  // Regression pin of the block-RGF reference path on the ablation bench's
  // lattice (N = 12, 24 slices, linear source-drain drop, 2.5 meV grid).
  // Hashes and hexfloats were captured from the solver that still carried
  // a second, energy-batched block-RGF kernel, with that kernel both on
  // and off: the per-energy solve must keep every bit.
  const TightBindingParams p{2.7, 0.12};
  const Lattice lat = Lattice::armchair(12, 24, p.edge_delta);
  std::vector<double> onsite(lat.atoms().size());
  for (size_t i = 0; i < onsite.size(); ++i) {
    onsite[i] = -0.45 - 0.4 * lat.atoms()[i].x_nm / lat.length_nm();
  }
  negf::TransportOptions opt;
  opt.mu_drain_eV = -0.4;
  opt.energy_step_eV = 2.5e-3;
  const auto sol = negf::solve_real_space(lat, p, onsite, opt);
  EXPECT_EQ(sol.current_A, 0x1.c6ffb7a171fe5p-18);
  EXPECT_EQ(sol.total_net_electrons, 0x1.9ed02df158cedp+2);
  EXPECT_EQ(sol.transmission.size(), 526u);
  EXPECT_EQ(fnv1a(sol.transmission), 0xb130af6fa9e0fbe7ull);
  EXPECT_EQ(fnv1a(flatten(sol.electrons)), 0x19f5624c113357cbull);
  EXPECT_EQ(fnv1a(flatten(sol.holes)), 0x6bc064580305491cull);
}

TEST(Transport, IdealRibbonTransmissionStaircase) {
  // With semi-infinite ideal-ribbon leads (Sancho-Rubio), T(E) equals the
  // number of subbands at E. Check plateau values at a few energies for
  // N=9 without edge relaxation (clean analytic subband edges).
  const TightBindingParams p{2.7, 0.0};
  const int n = 9;
  const Lattice lat = Lattice::armchair(n, 8, p.edge_delta);
  const auto h = gnr::build_hamiltonian(lat, p);
  const auto cell = gnr::unit_cell_hamiltonian(n, p);

  const auto modes = gnr::build_mode_set(n, p, n);
  // Subband edges sorted ascending.
  std::vector<double> edges;
  for (const auto& m : modes.modes) edges.push_back(m.band_edge_eV());
  std::sort(edges.begin(), edges.end());

  for (double e : {edges[0] + 0.05, edges[1] + 0.05}) {
    // Count expected propagating subbands at energy e.
    int expected = 0;
    for (const auto& m : modes.modes) {
      if (e > m.band_edge_eV() && e < m.band_top_eV()) ++expected;
    }
    const auto gs_r = negf::sancho_rubio_surface_gf(linalg::cplx(e, 1e-7), cell.h00, cell.h01);
    const auto gs_l =
        negf::sancho_rubio_surface_gf(linalg::cplx(e, 1e-7), cell.h00, cell.h01.adjoint());
    // Device made of whole unit cells so lead self-energies attach cleanly.
    gnr::BlockTridiagonal hsup;
    const size_t nc = h.num_blocks() / 2;
    for (size_t c = 0; c < nc; ++c) {
      hsup.diag.push_back(cell.h00);
      if (c + 1 < nc) hsup.upper.push_back(cell.h01);
    }
    const linalg::CMatrix sig_r = cell.h01 * (gs_r * cell.h01.adjoint());
    const linalg::CMatrix sig_l = cell.h01.adjoint() * (gs_l * cell.h01);
    const auto r = tests::rgf_solve(hsup, e, 1e-7, sig_l, sig_r);
    EXPECT_NEAR(r.transmission, expected, 0.02) << "E=" << e;
  }
}

TEST(AdaptiveGolden, UniformModeSpaceBitIdenticalToPreAdaptiveSolver) {
  // Regression pin: the uniform-grid solver (hoisted skip window, batched
  // RGF kernel) must reproduce the transport output of the solver that
  // predates the adaptive grid bit-for-bit. Hashes and hexfloats below were
  // captured from that solver.
  tests::GoldenProblem p;
  const auto sol = negf::solve_mode_space(p.modes, p.u, p.opts);
  EXPECT_EQ(sol.current_A, 0x1.12e6388bc3c3cp-17);
  EXPECT_EQ(sol.total_net_electrons, 0x1.44d1522dd0c06p+1);
  EXPECT_EQ(sol.energies_eV.size(), 613u);
  EXPECT_EQ(fnv1a(sol.energies_eV), 0x6b11046d548574f5ull);
  EXPECT_EQ(fnv1a(sol.transmission), 0x71b5bb6f38984168ull);
  EXPECT_EQ(fnv1a(flatten(sol.electrons)), 0xc8e0b403a2f0723eull);
  EXPECT_EQ(fnv1a(flatten(sol.holes)), 0xc3839b255526531eull);
}

TEST(ScalarRgfWorkspace, ReuseAcrossSolvesMatchesFreshWorkspace) {
  // A warm workspace carried across chains and energies must be stateless:
  // every solve equals a fresh-workspace solve bit-for-bit.
  negf::ScalarChain chain;
  const size_t n = 24;
  chain.onsite.resize(n);
  chain.hopping.assign(n - 1, -2.7);
  chain.gamma_left = 1.0;
  chain.gamma_right = 1.0;
  negf::ScalarRgfWorkspace warm;
  negf::ScalarRgfResult r_warm, r_fresh;
  for (int trial = 0; trial < 3; ++trial) {
    for (size_t c = 0; c < n; ++c) {
      chain.onsite[c] = -0.2 * trial + 0.05 * std::sin(0.3 * static_cast<double>(c));
    }
    for (const double e : {-0.4, 0.1, 0.35}) {
      negf::scalar_rgf_solve(chain, e, 1e-3, warm, r_warm);
      negf::ScalarRgfWorkspace fresh;
      negf::scalar_rgf_solve(chain, e, 1e-3, fresh, r_fresh);
      EXPECT_EQ(r_warm.transmission, r_fresh.transmission);
      EXPECT_EQ(r_warm.transmission_reverse, r_fresh.transmission_reverse);
      ASSERT_EQ(r_warm.spectral_left.size(), r_fresh.spectral_left.size());
      for (size_t c = 0; c < r_warm.spectral_left.size(); ++c) {
        EXPECT_EQ(r_warm.spectral_total[c], r_fresh.spectral_total[c]);
        EXPECT_EQ(r_warm.spectral_left[c], r_fresh.spectral_left[c]);
        EXPECT_EQ(r_warm.spectral_right[c], r_fresh.spectral_right[c]);
      }
    }
  }
}

}  // namespace
