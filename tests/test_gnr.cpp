#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numbers>

#include "common/constants.hpp"
#include "gnr/hamiltonian.hpp"
#include "gnr/lattice.hpp"
#include "gnr/modespace.hpp"
#include "support/gnr_oracles.hpp"
#include "support/linalg_oracles.hpp"
#include "support/negf_oracles.hpp"

namespace {

using namespace gnrfet;
using gnr::Lattice;
using gnr::TightBindingParams;

TEST(Lattice, AtomCountMatchesUnitCell) {
  // 2N atoms per 2-slice period.
  for (int n : {9, 12, 15, 18}) {
    const Lattice lat = Lattice::armchair(n, 10, 0.0);
    EXPECT_EQ(lat.atoms().size(), static_cast<size_t>(5 * 2 * n));
  }
}

TEST(Lattice, WidthMatchesPaperValues) {
  // N=9 -> ~1 nm (paper quotes 1.1 nm including edge extent), steps of
  // 3.7 Angstrom per +3 in N.
  const Lattice l9 = Lattice::armchair(9, 4, 0.0);
  EXPECT_NEAR(l9.width_nm(), 0.984, 0.01);
  const Lattice l12 = Lattice::armchair(12, 4, 0.0);
  EXPECT_NEAR(l12.width_nm() - l9.width_nm(), 0.369, 0.005);
}

TEST(Lattice, CoordinationNumbers) {
  const Lattice lat = Lattice::armchair(12, 12, 0.0);
  std::vector<int> coord(lat.atoms().size(), 0);
  for (const auto& b : lat.bonds()) {
    coord[b.a]++;
    coord[b.b]++;
  }
  // Interior atoms have 3 neighbours, edge/end atoms fewer, none more.
  int n3 = 0;
  for (size_t i = 0; i < coord.size(); ++i) {
    EXPECT_LE(coord[i], 3);
    EXPECT_GE(coord[i], 1);
    if (coord[i] == 3) ++n3;
  }
  EXPECT_GT(n3, static_cast<int>(coord.size()) / 2);
}

TEST(Lattice, EdgeBondsGetRelaxationScale) {
  const double delta = 0.12;
  const Lattice lat = Lattice::armchair(9, 8, delta);
  int scaled = 0;
  for (const auto& b : lat.bonds()) {
    if (b.scale != 1.0) {
      EXPECT_NEAR(b.scale, 1.0 + delta, 1e-12);
      const auto& atoms = lat.atoms();
      const bool edge0 = atoms[b.a].dimer_line == 0 && atoms[b.b].dimer_line == 0;
      const bool edgeN = atoms[b.a].dimer_line == 8 && atoms[b.b].dimer_line == 8;
      EXPECT_TRUE(edge0 || edgeN);
      ++scaled;
    }
  }
  // One edge dimer per edge line per period on each edge.
  EXPECT_GT(scaled, 0);
}

TEST(Lattice, SlicesForLength) {
  const int ns = Lattice::slices_for_length(15.0);
  EXPECT_GE(ns * 1.5 * constants::kCarbonBond_nm, 15.0 - 1e-9);
  EXPECT_LT((ns - 1) * 1.5 * constants::kCarbonBond_nm, 15.0);
}

TEST(Hamiltonian, IsHermitianAndTracelessWithoutPotential) {
  const Lattice lat = Lattice::armchair(12, 8, 0.12);
  const auto h = gnr::build_hamiltonian(lat, {2.7, 0.12});
  const auto dense = negf::to_dense(h);
  const auto herm = linalg::hermitian_part(dense);
  linalg::CMatrix diff = dense;
  diff -= herm;
  EXPECT_LT(linalg::frobenius_norm(diff), 1e-12);
  EXPECT_NEAR(std::abs(dense.trace()), 0.0, 1e-12);
}

TEST(Hamiltonian, OnsitePotentialAppearsOnDiagonal) {
  const Lattice lat = Lattice::armchair(9, 6, 0.0);
  std::vector<double> onsite(lat.atoms().size());
  for (size_t i = 0; i < onsite.size(); ++i) onsite[i] = 0.01 * static_cast<double>(i);
  const auto h = gnr::build_hamiltonian(lat, {2.7, 0.0}, onsite);
  double trace = 0.0;
  for (const auto& d : h.diag) trace += d.trace().real();
  double expect = 0.0;
  for (const double u : onsite) expect += u;
  EXPECT_NEAR(trace, expect, 1e-9);
}

TEST(BandStructure, MetallicFamilyWithoutEdgeRelaxation) {
  // N = 3q+2 ribbons are gapless in the bare pz model.
  EXPECT_LT(gnr::band_gap(11, {2.7, 0.0}), 0.02);
  EXPECT_LT(gnr::band_gap(14, {2.7, 0.0}), 0.02);
}

TEST(BandStructure, EdgeRelaxationOpensSmallGapIn3qPlus2) {
  const double g = gnr::band_gap(11, {2.7, 0.12});
  EXPECT_GT(g, 0.02);
  EXPECT_LT(g, 0.4);
}

TEST(BandStructure, GapDecreasesWithWidthForPaperFamilies) {
  const TightBindingParams p{2.7, 0.12};
  const double g9 = gnr::band_gap(9, p);
  const double g12 = gnr::band_gap(12, p);
  const double g15 = gnr::band_gap(15, p);
  const double g18 = gnr::band_gap(18, p);
  EXPECT_GT(g9, g12);
  EXPECT_GT(g12, g15);
  EXPECT_GT(g15, g18);
  // N=12 gap ~0.6 eV so that VT ~ Eg/2 ~ 0.3 V as extracted in Fig. 2(b).
  EXPECT_NEAR(g12, 0.6, 0.1);
  // N=9: large enough for Ion/Ioff ~ 1000x (Fig. 4).
  EXPECT_GT(g9, 0.7);
  // N=18: small gap -> leaky device (Fig. 4).
  EXPECT_LT(g18, 0.45);
}

TEST(BandStructure, ParticleHoleSymmetry) {
  const auto bs = gnr::compute_bands(12, {2.7, 0.12}, 16);
  for (const auto& bands : bs.bands) {
    const size_t n = bands.size();
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(bands[i], -bands[n - 1 - i], 1e-8);
    }
  }
}

TEST(ModeSpace, MatchesAnalyticSshDispersionWithoutEdgeRelaxation) {
  // Without edge relaxation the mode decomposition is exact: the positive
  // real-space bands at each reduced-zone k equal the set
  // { sqrt(t^2 + b_p^2 + 2 t b_p cos(1.5 aCC k)), p = 1..N } with
  // b_p = 2 t cos(p pi / (N+1)) (signed).
  const double t = 2.7;
  const int n = 12;
  const auto bs = gnr::compute_bands(n, {t, 0.0}, 9);
  for (size_t ik = 0; ik < bs.k.size(); ++ik) {
    std::vector<double> analytic;
    for (int p = 1; p <= n; ++p) {
      const double b = 2.0 * t * std::cos(p * std::numbers::pi / (n + 1));
      const double c = std::cos(bs.k[ik] * 1.5 * constants::kCarbonBond_nm);
      const double e = std::sqrt(std::max(0.0, t * t + b * b + 2.0 * t * b * c));
      analytic.push_back(e);
      analytic.push_back(-e);
    }
    std::sort(analytic.begin(), analytic.end());
    ASSERT_EQ(analytic.size(), bs.bands[ik].size());
    for (size_t i = 0; i < analytic.size(); ++i) {
      EXPECT_NEAR(analytic[i], bs.bands[ik][i], 1e-8) << "k index " << ik << " band " << i;
    }
  }
}

TEST(ModeSpace, DegeneracySumMatchesAtomCount) {
  // The reduced mode set must carry N/2 states per atomic column, the same
  // as the real lattice (each column holds ~N/2 atoms).
  for (int n : {9, 12, 15, 18}) {
    const auto modes = gnr::build_mode_set(n, {2.7, 0.12}, n);
    double s = 0.0;
    for (const auto& m : modes.modes) s += m.degeneracy;
    EXPECT_NEAR(s, n / 2.0, 1e-12) << "N=" << n;
  }
}

TEST(ModeSpace, EdgeCorrectedGapCloseToRealSpace) {
  // With edge relaxation the uncoupled mode space is approximate; the gap
  // should still track the real-space gap within ~10%.
  const TightBindingParams p{2.7, 0.12};
  for (int n : {9, 12, 15, 18}) {
    const auto modes = gnr::build_mode_set(n, p, 2);
    const double g_mode = modes.band_gap_eV();
    const double g_real = gnr::band_gap(n, p);
    EXPECT_NEAR(g_mode, g_real, 0.1 * g_real + 0.02) << "N=" << n;
  }
}

TEST(ModeSpace, WeightsAreNormalized) {
  const auto modes = gnr::build_mode_set(15, {2.7, 0.12}, 4);
  for (const auto& m : modes.modes) {
    double s = 0.0;
    for (const double w : m.weight) s += w;
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(ModeSpace, ModesSortedByBandEdge) {
  const auto modes = gnr::build_mode_set(12, {2.7, 0.12}, 6);
  for (size_t i = 1; i < modes.modes.size(); ++i) {
    EXPECT_GE(modes.modes[i].band_edge_eV(), modes.modes[i - 1].band_edge_eV());
  }
}

}  // namespace
