#include <gtest/gtest.h>

#include <cmath>

#include "gnr/lattice.hpp"
#include "gnr/modespace.hpp"
#include "negf/selfenergy.hpp"
#include "support/gnr_oracles.hpp"
#include "support/negf_oracles.hpp"
#include "synthetic_device.hpp"

namespace {

using namespace gnrfet;

// ---------------------------------------------------------------------
// Parameterized property sweeps across the GNR index family.
// ---------------------------------------------------------------------

class GnrIndexProperties : public ::testing::TestWithParam<int> {};

TEST_P(GnrIndexProperties, LatticeInvariants) {
  const int n = GetParam();
  const gnr::Lattice lat = gnr::Lattice::armchair(n, 10, 0.12);
  // 2N atoms per unit cell (2 slices).
  EXPECT_EQ(lat.atoms().size(), static_cast<size_t>(10 * n));
  // Width formula.
  EXPECT_NEAR(lat.width_nm(), (n - 1) * std::sqrt(3.0) / 2.0 * 0.142, 1e-9);
  // Every atom belongs to exactly one slice.
  size_t total = 0;
  for (const auto& s : lat.slice_atoms()) total += s.size();
  EXPECT_EQ(total, lat.atoms().size());
  // Two columns per slice.
  EXPECT_EQ(lat.column_x_nm().size(), 2u * static_cast<size_t>(lat.num_slices()));
}

TEST_P(GnrIndexProperties, BandStructureInvariants) {
  const int n = GetParam();
  const gnr::TightBindingParams p{2.7, 0.12};
  const auto bs = gnr::compute_bands(n, p, 24);
  // Particle-hole symmetry at every k.
  for (const auto& bands : bs.bands) {
    for (size_t i = 0; i < bands.size(); ++i) {
      EXPECT_NEAR(bands[i], -bands[bands.size() - 1 - i], 1e-8);
    }
  }
  // All paper-family ribbons are semiconducting with edge relaxation.
  EXPECT_GT(bs.band_gap(), 0.02);
  // Bands bounded by 3t(1+delta).
  for (const auto& bands : bs.bands) {
    EXPECT_LT(std::abs(bands.back()), 3.0 * 2.7 * 1.12 + 1e-6);
  }
}

TEST_P(GnrIndexProperties, ModeSpaceGapTracksRealSpace) {
  const int n = GetParam();
  const gnr::TightBindingParams p{2.7, 0.12};
  const auto modes = gnr::build_mode_set(n, p, 3);
  const double g_real = gnr::band_gap(n, p);
  EXPECT_NEAR(modes.band_gap_eV(), g_real, 0.1 * g_real + 0.02);
}

INSTANTIATE_TEST_SUITE_P(PaperFamilies, GnrIndexProperties,
                         ::testing::Values(9, 12, 15, 18, 21, 24));

// ---------------------------------------------------------------------
// Scalar-RGF sum rules swept across contact strengths.
// ---------------------------------------------------------------------

class ContactStrengthProperties : public ::testing::TestWithParam<double> {};

TEST_P(ContactStrengthProperties, SpectralFunctionsNonNegativeAndBounded) {
  const double gamma = GetParam();
  negf::ScalarChain chain;
  chain.onsite.assign(25, 0.0);
  for (size_t i = 0; i < chain.onsite.size(); ++i) {
    chain.onsite[i] = 0.2 * std::sin(0.5 * static_cast<double>(i));
  }
  chain.hopping.assign(24, 0.0);
  for (size_t i = 0; i < chain.hopping.size(); ++i) {
    chain.hopping[i] = (i % 2 == 0) ? -2.7 : -1.2;
  }
  chain.gamma_left = gamma;
  chain.gamma_right = 0.5 * gamma;
  for (double e = -4.5; e <= 4.5; e += 0.3) {
    const auto r = negf::scalar_rgf_solve(chain, e, 1e-4);
    EXPECT_GE(r.transmission, -1e-12);
    EXPECT_LE(r.transmission, 1.0 + 1e-9);
    for (size_t c = 0; c < chain.onsite.size(); ++c) {
      EXPECT_GE(r.spectral_left[c], -1e-12);
      EXPECT_GE(r.spectral_right[c], -1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Gammas, ContactStrengthProperties,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0));

// ---------------------------------------------------------------------
// Device-model invariants swept across bias.
// ---------------------------------------------------------------------

struct BiasPoint {
  double vgs;
  double vds;
};

class ModelBiasProperties : public ::testing::TestWithParam<BiasPoint> {};

TEST_P(ModelBiasProperties, ComplementaryPairIsConsistent) {
  const auto [vgs, vds] = GetParam();
  const auto n = synthetic::synthetic_fet(model::Polarity::kN, 0.1);
  const auto p = synthetic::synthetic_fet(model::Polarity::kP, 0.1);
  // Current sign follows vds for the n device...
  EXPECT_GE(n.current(vgs, vds).value * vds, -1e-18);
  // ...and the p device mirrors it exactly.
  EXPECT_NEAR(p.current(-vgs, -vds).value, -n.current(vgs, vds).value, 1e-18);
  // Derivative consistency under the mirror.
  EXPECT_NEAR(p.current(-vgs, -vds).d_dvgs, n.current(vgs, vds).d_dvgs, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(BiasGrid, ModelBiasProperties,
                         ::testing::Values(BiasPoint{0.0, 0.2}, BiasPoint{0.2, 0.4},
                                           BiasPoint{0.4, 0.1}, BiasPoint{0.5, 0.5},
                                           BiasPoint{0.3, -0.3}, BiasPoint{0.1, -0.5}));

}  // namespace
