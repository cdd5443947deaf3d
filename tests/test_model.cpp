#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "model/array_fet.hpp"
#include "model/extrinsic_fet.hpp"
#include "model/table2d.hpp"
#include "support/model_oracles.hpp"
#include "synthetic_device.hpp"

namespace {

using namespace gnrfet;
using model::Polarity;
using model::Table2D;

TEST(Table2D, ReproducesBilinearFunctionExactly) {
  // Catmull-Rom reproduces polynomials up to cubic along each axis.
  std::vector<double> xs, ys, v;
  for (int i = 0; i < 9; ++i) xs.push_back(0.1 * i);
  for (int j = 0; j < 7; ++j) ys.push_back(0.2 * j);
  for (double x : xs) {
    for (double y : ys) v.push_back(2.0 + 3.0 * x - 1.5 * y + 0.7 * x * y);
  }
  const Table2D t(xs, ys, v);
  const auto s = t.sample(0.33, 0.71);
  EXPECT_NEAR(s.value, 2.0 + 3.0 * 0.33 - 1.5 * 0.71 + 0.7 * 0.33 * 0.71, 1e-10);
  EXPECT_NEAR(s.d_dx, 3.0 + 0.7 * 0.71, 1e-8);
  EXPECT_NEAR(s.d_dy, -1.5 + 0.7 * 0.33, 1e-8);
}

TEST(Table2D, DerivativesMatchFiniteDifferences) {
  std::vector<double> xs, ys, v;
  for (int i = 0; i < 11; ++i) xs.push_back(0.1 * i);
  for (int j = 0; j < 11; ++j) ys.push_back(0.1 * j);
  for (double x : xs) {
    for (double y : ys) v.push_back(std::sin(3 * x) * std::cos(2 * y));
  }
  const Table2D t(xs, ys, v);
  const double h = 1e-6;
  for (double x : {0.23, 0.55, 0.81}) {
    for (double y : {0.18, 0.64}) {
      const auto s = t.sample(x, y);
      const double fd_x = (t.sample(x + h, y).value - t.sample(x - h, y).value) / (2 * h);
      const double fd_y = (t.sample(x, y + h).value - t.sample(x, y - h).value) / (2 * h);
      EXPECT_NEAR(s.d_dx, fd_x, 1e-5);
      EXPECT_NEAR(s.d_dy, fd_y, 1e-5);
    }
  }
}

TEST(Table2D, LinearExtrapolationOutsideDomain) {
  std::vector<double> xs = {0.0, 0.5, 1.0};
  std::vector<double> ys = {0.0, 1.0};
  std::vector<double> v = {0.0, 0.0, 1.0, 1.0, 2.0, 2.0};  // v = 2x
  const Table2D t(xs, ys, v);
  EXPECT_NEAR(t.sample(1.5, 0.5).value, 3.0, 1e-9);
  EXPECT_NEAR(t.sample(-0.5, 0.5).value, -1.0, 1e-9);
}

TEST(Table2D, GhostPointSamplesAreBitPinned) {
  // Bit pin of the linearly extended ghost rows: every sample below needs
  // ghost points on both axes, the corner ones a ghost of a ghost.
  std::vector<double> xs, ys, v;
  for (int i = 0; i < 6; ++i) xs.push_back(-0.2 + 0.15 * i);
  for (int j = 0; j < 5; ++j) ys.push_back(0.1 * j);
  for (double x : xs) {
    for (double y : ys) v.push_back(std::exp(1.3 * x) * std::cos(2.1 * y) + 0.4 * x * y * y);
  }
  const Table2D t(xs, ys, v);
  struct Pin {
    double x, y, value, d_dx, d_dy;
  };
  const Pin pins[] = {
      {-0.31, -0.07, 0x1.52cd80e7a7fep-1, 0x1.1b5571954f23ap+0, -0x1.6b4d02cb11d5p-3},
      {0.73, 0.52, 0x1.5ff85a363ee31p+0, 0x1.aceebe6c12165p+0, -0x1.5c157280e8f3ep+1},
      {0.73, -0.07, 0x1.411c38c47fc99p+1, 0x1.350ad90d50e22p+1, -0x1.b556d95ce09p-2},
      {-0.31, 0.52, 0x1.1b694d05aa22p-2, 0x1.9aff5cd20017p-1, -0x1.23cba6951f8f9p+0},
      {-0.17, 0.38, 0x1.1961946023d15p-1, 0x1.9c6d20385c567p-1, -0x1.3819e1c8a206ap+0},
  };
  for (const Pin& p : pins) {
    const auto s = t.sample(p.x, p.y);
    EXPECT_EQ(s.value, p.value) << p.x << ", " << p.y;
    EXPECT_EQ(s.d_dx, p.d_dx) << p.x << ", " << p.y;
    EXPECT_EQ(s.d_dy, p.d_dy) << p.x << ", " << p.y;
  }
}

TEST(Table2D, PaddedGhostRingMatchesRecursiveExtension) {
  // Every stored point, ring and corners included, bit-equal to the
  // recursive linear extension, on the smallest and on uneven shapes.
  for (const auto& [nx, ny] : {std::pair<int, int>{2, 2}, {2, 5}, {6, 3}, {7, 5}}) {
    std::vector<double> xs, ys, v;
    for (int i = 0; i < nx; ++i) xs.push_back(0.1 * i - 0.3);
    for (int j = 0; j < ny; ++j) ys.push_back(0.05 * j);
    for (int i = 0; i < nx; ++i) {
      for (int j = 0; j < ny; ++j) {
        v.push_back(std::sin(1.7 * i + 0.3) * std::exp(0.4 * j) + 0.1 * i * j);
      }
    }
    const Table2D t(xs, ys, v);
    for (ptrdiff_t ix = -1; ix <= nx; ++ix) {
      for (ptrdiff_t iy = -1; iy <= ny; ++iy) {
        EXPECT_EQ(std::bit_cast<uint64_t>(t.grid(ix, iy)),
                  std::bit_cast<uint64_t>(model::extended_oracle(v, nx, ny, ix, iy)))
            << nx << "x" << ny << " at (" << ix << ", " << iy << ")";
      }
    }
    EXPECT_THROW(t.grid(-2, 0), std::out_of_range);
    EXPECT_THROW(t.grid(0, ny + 1), std::out_of_range);
  }
}

TEST(Table2D, NonFiniteCoordinateGivesNanSample) {
  // Regression: a NaN coordinate was cast to an undefined cell index,
  // which sent the ghost-point lookup into unbounded recursion (SIGSEGV).
  const Table2D t({0.0, 0.1, 0.2, 0.3}, {0.0, 0.05, 0.1},
                  {0.0, 1.0, 2.0, 1.0, 2.0, 3.0, 2.0, 3.0, 4.0, 3.0, 4.0, 5.0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> points[] = {{nan, 0.05}, {0.1, nan}, {inf, 0.05}, {0.1, -inf}};
  for (const auto& [x, y] : points) {
    const auto s = t.sample(x, y);
    EXPECT_TRUE(std::isnan(s.value)) << x << ", " << y;
    EXPECT_TRUE(std::isnan(s.d_dx)) << x << ", " << y;
    EXPECT_TRUE(std::isnan(s.d_dy)) << x << ", " << y;
  }
  EXPECT_TRUE(std::isnan(synthetic::synthetic_fet(Polarity::kN).current(nan, 0.2).value));
}

TEST(Table2D, RejectsNonUniformAxis) {
  EXPECT_THROW(Table2D({0.0, 0.1, 0.5}, {0.0, 1.0}, std::vector<double>(6, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(Table2D({0.0, 0.1}, {0.0, 0.1}, std::vector<double>(3, 0.0)),
               std::invalid_argument);
}

TEST(IntrinsicFet, PTypeIsParticleHoleMirror) {
  const auto n = synthetic::synthetic_fet(Polarity::kN, 0.05);
  const auto p = synthetic::synthetic_fet(Polarity::kP, 0.05);
  for (double vgs : {0.1, 0.3, 0.5}) {
    for (double vds : {0.1, 0.4}) {
      EXPECT_NEAR(p.current(-vgs, -vds).value, -n.current(vgs, vds).value, 1e-18);
      EXPECT_NEAR(p.charge(-vgs, -vds).value, -n.charge(vgs, vds).value, 1e-24);
    }
  }
}

TEST(IntrinsicFet, CurrentContinuousAcrossVdsZero) {
  const auto n = synthetic::synthetic_fet(Polarity::kN);
  for (double vgs : {0.0, 0.2, 0.45}) {
    const double below = n.current(vgs, -1e-6).value;
    const double above = n.current(vgs, 1e-6).value;
    EXPECT_NEAR(below, above, 1e-9);
    EXPECT_NEAR(n.current(vgs, 0.0).value, 0.0, 1e-7);
  }
}

TEST(IntrinsicFet, SwapAntisymmetryForCurrent) {
  const auto n = synthetic::synthetic_fet(Polarity::kN);
  // I(vgs, -v) = -I(vgd, v) with vgd = vgs - vds = vgs + v (device
  // symmetry under source/drain exchange).
  for (double vgs : {0.1, 0.35}) {
    for (double v : {0.2, 0.5}) {
      EXPECT_NEAR(n.current(vgs, -v).value, -n.current(vgs + v, v).value, 1e-18);
    }
  }
}

TEST(IntrinsicFet, OffsetShiftsGateAxis) {
  const auto a = synthetic::synthetic_fet(Polarity::kN, 0.0);
  const auto b = synthetic::synthetic_fet(Polarity::kN, 0.15);
  EXPECT_NEAR(b.current(0.3, 0.4).value, a.current(0.45, 0.4).value, 1e-18);
}

TEST(IntrinsicFet, DerivativesMatchFiniteDifferences) {
  const auto n = synthetic::synthetic_fet(Polarity::kN, 0.1);
  const double h = 1e-6;
  for (double vgs : {0.15, 0.4}) {
    for (double vds : {0.12, 0.33}) {
      const auto s = n.current(vgs, vds);
      const double fd_g = (n.current(vgs + h, vds).value - n.current(vgs - h, vds).value) / (2 * h);
      const double fd_d = (n.current(vgs, vds + h).value - n.current(vgs, vds - h).value) / (2 * h);
      EXPECT_NEAR(s.d_dvgs, fd_g, 1e-7 + 1e-4 * std::abs(fd_g));
      EXPECT_NEAR(s.d_dvds, fd_d, 1e-7 + 1e-4 * std::abs(fd_d));
    }
  }
}

TEST(ArrayFet, UniformArrayScalesCurrent) {
  const auto one = synthetic::synthetic_fet(Polarity::kN);
  const auto four = synthetic::uniform_array(one, 4);
  EXPECT_NEAR(four.current(0.4, 0.4).value, 4.0 * one.current(0.4, 0.4).value, 1e-18);
  EXPECT_NEAR(four.charge(0.4, 0.4).value, 4.0 * one.charge(0.4, 0.4).value, 1e-24);
}

TEST(ArrayFet, VariantMixing) {
  const auto nom = synthetic::synthetic_fet(Polarity::kN, 0.0);
  const auto var = synthetic::synthetic_fet(Polarity::kN, 0.2);  // stronger device
  const auto mixed = model::ArrayFet::with_variants(nom, var, 4, 1);
  const double expected = 3.0 * nom.current(0.4, 0.4).value + var.current(0.4, 0.4).value;
  EXPECT_NEAR(mixed.current(0.4, 0.4).value, expected, 1e-18);
  EXPECT_THROW(model::ArrayFet::with_variants(nom, var, 4, 5), std::invalid_argument);
}

TEST(ArrayFet, SharedChannelSamplesMatchChannelLoopBitForBit) {
  // The array samples a run of identical channels once; its sums must keep
  // the bits of sampling every channel in array order.
  for (const Polarity pol : {Polarity::kN, Polarity::kP}) {
    const auto nom = synthetic::synthetic_fet(pol, 0.05);
    const auto var = synthetic::synthetic_fet(pol, 0.2);
    const std::pair<model::ArrayFet, std::vector<model::IntrinsicFet>> cases[] = {
        {synthetic::uniform_array(nom, 4), {nom, nom, nom, nom}},
        {model::ArrayFet::with_variants(nom, var, 4, 1), {nom, nom, nom, var}},
    };
    for (const auto& [array, channels] : cases) {
      for (double vgs : {-0.3, 0.0, 0.15, 0.4}) {
        for (double vds : {-0.25, 0.0, 0.3}) {
          model::FetSample i, q;
          for (const auto& c : channels) {
            const auto ci = c.current(vgs, vds);
            const auto cq = c.charge(vgs, vds);
            i.value += ci.value;
            i.d_dvgs += ci.d_dvgs;
            i.d_dvds += ci.d_dvds;
            q.value += cq.value;
            q.d_dvgs += cq.d_dvgs;
            q.d_dvds += cq.d_dvds;
          }
          const auto ai = array.current(vgs, vds);
          const auto aq = array.charge(vgs, vds);
          EXPECT_EQ(ai.value, i.value);
          EXPECT_EQ(ai.d_dvgs, i.d_dvgs);
          EXPECT_EQ(ai.d_dvds, i.d_dvds);
          EXPECT_EQ(aq.value, q.value);
          EXPECT_EQ(aq.d_dvgs, q.d_dvgs);
          EXPECT_EQ(aq.d_dvds, q.d_dvds);
        }
      }
    }
  }
}

TEST(ArrayFet, RejectsMixedPolarity) {
  std::vector<model::IntrinsicFet> chans = {synthetic::synthetic_fet(Polarity::kN),
                                            synthetic::synthetic_fet(Polarity::kP)};
  EXPECT_THROW(model::ArrayFet a(std::move(chans)), std::invalid_argument);
}

TEST(Parasitics, FromPerWidth) {
  const auto p = model::Parasitics::from_per_width(0.1, 40.0);
  EXPECT_NEAR(p.cgs_e_F, 4e-18, 1e-24);
  EXPECT_NEAR(p.cgd_e_F, 4e-18, 1e-24);
}

}  // namespace
