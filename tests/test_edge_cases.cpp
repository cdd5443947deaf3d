#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "circuit/measure.hpp"
#include "common/cache.hpp"
#include "explore/contours.hpp"
#include "negf/energygrid.hpp"
#include "env_guard.hpp"
#include "synthetic_device.hpp"

namespace {

using namespace gnrfet;
using tests::EnvGuard;

TEST(EnergyGridEdge, DegenerateWindowClampsToMinimalGrid) {
  // lo >= hi no longer throws: the degenerate-window contract clamps to a
  // minimal 3-point grid one step wide around the window midpoint.
  const auto g = negf::make_energy_grid(1.0, 1.0, 0.01);
  ASSERT_EQ(g.points.size(), 3u);
  EXPECT_NEAR(g.points.front(), 1.0 - 0.005, 1e-12);
  EXPECT_NEAR(g.points.back(), 1.0 + 0.005, 1e-12);
  // Inverted windows clamp around their midpoint the same way.
  const auto gi = negf::make_energy_grid(2.0, 1.0, 0.01);
  ASSERT_EQ(gi.points.size(), 3u);
  EXPECT_NEAR(gi.points.front(), 1.5 - 0.005, 1e-12);
  EXPECT_NEAR(gi.points.back(), 1.5 + 0.005, 1e-12);
}

TEST(EnergyGridEdge, StepLargerThanWindowStillYieldsThreePoints) {
  // A window narrower than one step widens to exactly one step; total
  // trapezoid weight equals the (widened) window width.
  const auto g = negf::make_energy_grid(0.0, 1e-3, 0.01);
  ASSERT_EQ(g.points.size(), 3u);
  EXPECT_LT(g.points.front(), g.points.back());
  double total_w = 0.0;
  for (const double w : g.weights) total_w += w;
  EXPECT_NEAR(total_w, g.points.back() - g.points.front(), 1e-15);
}

TEST(EnergyGridEdge, NearEmptyWindowIntegratesToNearZero) {
  // Near-empty windows are valid grids whose integrals are ~window-sized.
  const auto g = negf::make_energy_grid(0.5, 0.5 + 1e-9, 1e-10);
  ASSERT_GE(g.points.size(), 3u);
  double integral = 0.0;
  for (size_t i = 0; i < g.points.size(); ++i) integral += g.weights[i] * 1.0;
  EXPECT_NEAR(integral, g.points.back() - g.points.front(), 1e-18);
}

TEST(EnergyGridEdge, RejectsNonPositiveOrNonFiniteStep) {
  EXPECT_THROW(negf::make_energy_grid(0.0, 1.0, -0.1), std::invalid_argument);
  EXPECT_THROW(negf::make_energy_grid(0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(negf::make_energy_grid(0.0, std::nan(""), 0.01), std::invalid_argument);
}

TEST(EnergyGridEdge, WindowCoversFullyOccupiedStatesUnderGateOverdrive) {
  // Deep gate overdrive pulls the local mid-gap below both chemical
  // potentials; the window must still include those fully occupied
  // conduction states (they carry net charge).
  const auto w = negf::charge_window(/*min_midgap=*/-0.9, /*max_midgap=*/0.0,
                                     /*mu_s=*/0.0, /*mu_d=*/-0.25, 0.0259, 8.1);
  EXPECT_LT(w.lo, -0.9);
  EXPECT_GT(w.hi, 0.25);
}

TEST(ContoursEdge, SaddleCellEmitsTwoSegments) {
  // Checkerboard cell: values 0,1 / 1,0 with level 0.5 is the classic
  // marching-squares saddle.
  const std::vector<double> xs = {0.0, 1.0}, ys = {0.0, 1.0};
  const std::vector<double> f = {0.0, 1.0, 1.0, 0.0};
  const auto segs = explore::contour_segments(xs, ys, f, 0.5);
  EXPECT_EQ(segs.size(), 2u);
}

TEST(MeasureEdge, CrossingTimesEmptyForFlatWave) {
  const std::vector<double> t = {0.0, 1.0, 2.0};
  const std::vector<double> v = {0.2, 0.2, 0.2};
  EXPECT_TRUE(circuit::crossing_times(t, v, 0.5, true).empty());
}

TEST(CacheEdge, EnvironmentOverrideWins) {
  EnvGuard guard("GNRFET_CACHE_DIR", "/tmp/gnrfet-cache-test");
  EXPECT_EQ(cache::directory(), "/tmp/gnrfet-cache-test");
}

TEST(SyntheticModel, ChargeDerivativesGiveSaneCapacitances) {
  // The capacitance-extraction convention of Sec. 3 must produce positive
  // CGD,i and CGS,i in the on-state.
  const auto n = synthetic::synthetic_fet(model::Polarity::kN, 0.1);
  const auto q = n.charge(0.4, 0.3);
  const double cgd = std::abs(q.d_dvds);
  const double cgs = std::abs(q.d_dvgs) - cgd;
  EXPECT_GT(cgs, 0.0);
  EXPECT_LT(cgs, 1e-15);
  EXPECT_GE(cgd, 0.0);
}

TEST(PulseWaveform, RampIsPiecewiseLinear) {
  const auto w = synthetic::pulse_waveform(0.0, 1.0, 10e-12, 4e-12);
  EXPECT_DOUBLE_EQ(w(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w(10e-12), 0.0);
  EXPECT_NEAR(w(12e-12), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(w(20e-12), 1.0);
}

}  // namespace
