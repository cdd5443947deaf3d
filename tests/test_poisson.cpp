#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "poisson/assembly.hpp"
#include "poisson/grid.hpp"
#include "support/poisson_oracles.hpp"

namespace {

using namespace gnrfet;
using poisson::Box;
using poisson::Domain;
using poisson::GridSpec;

GridSpec small_grid(size_t nx, size_t ny, size_t nz, double h) {
  GridSpec g;
  g.nx = nx;
  g.ny = ny;
  g.nz = nz;
  g.dx = g.dy = g.dz = h;
  return g;
}

TEST(PoissonGrid, IndexingRoundTrip) {
  const GridSpec g = small_grid(4, 5, 6, 0.5);
  EXPECT_EQ(g.num_nodes(), 120u);
  EXPECT_EQ(g.index(3, 4, 5), 119u);
  EXPECT_DOUBLE_EQ(g.x(2), 1.0);
}

TEST(PoissonGrid, DepositConservesCharge) {
  const GridSpec g = small_grid(6, 6, 6, 0.3);
  Domain d(g);
  std::vector<double> rho(g.num_nodes(), 0.0);
  d.deposit_charge(0.71, 0.77, 0.55, -2.5, rho);
  double total = 0.0;
  for (const double v : rho) total += v;
  EXPECT_NEAR(total, -2.5, 1e-12);
}

TEST(Poisson, ParallelPlateCapacitor) {
  // Two Dirichlet planes at z extremes, uniform dielectric: linear ramp.
  const GridSpec g = small_grid(5, 5, 9, 0.25);
  Domain d(g);
  d.paint_permittivity({-1, 10, -1, 10, -1, 10}, 3.9);
  const int bot = d.add_electrode({-1, 10, -1, 10, -0.001, 0.001});
  const double z_top = g.z(g.nz - 1);
  const int top = d.add_electrode({-1, 10, -1, 10, z_top - 0.001, z_top + 0.001});
  ASSERT_EQ(bot, 0);
  ASSERT_EQ(top, 1);
  std::vector<double> rho(g.num_nodes(), 0.0);
  const auto phi = poisson::PoissonSolver(d).solve_linear({0.0, 1.0}, rho);
  for (size_t k = 0; k < g.nz; ++k) {
    const double expected = g.z(k) / z_top;
    EXPECT_NEAR(phi[g.index(2, 2, k)], expected, 1e-8) << "k=" << k;
  }
}

TEST(Poisson, PointChargePotentialIsPositiveAndDecays) {
  const GridSpec g = small_grid(17, 17, 17, 0.25);
  Domain d(g);
  // Grounded box boundary.
  d.paint_permittivity({-1, 10, -1, 10, -1, 10}, 1.0);
  const int walls = d.add_electrode({-0.001, 0.001, -1, 10, -1, 10});
  (void)walls;
  const double x_end = g.x(g.nx - 1);
  d.add_electrode({x_end - 0.001, x_end + 0.001, -1, 10, -1, 10});
  std::vector<double> rho(g.num_nodes(), 0.0);
  const double cx = g.x(8), cy = g.y(8), cz = g.z(8);
  d.deposit_charge(cx, cy, cz, 1.0, rho);
  const auto phi = poisson::PoissonSolver(d).solve_linear({0.0, 0.0}, rho);
  const double p_center = phi[g.index(8, 8, 8)];
  const double p_far = phi[g.index(12, 8, 8)];
  EXPECT_GT(p_center, p_far);
  EXPECT_GT(p_far, 0.0);
  // Coulomb scale sanity: phi(r) = q/(4 pi eps0 r) = 1.44 V nm / r for
  // r = 1 nm (4 cells) in vacuum; grid/boundary effects allow ~40%.
  EXPECT_NEAR(p_far, 1.44, 0.6);
}

TEST(Poisson, DielectricInterfaceFluxContinuity) {
  // Two-layer capacitor: eps1 for lower half, eps2 for upper half; the
  // interface potential follows the series-capacitor divider.
  const GridSpec g = small_grid(3, 3, 9, 0.25);
  Domain d(g);
  d.paint_permittivity({-1, 10, -1, 10, -1.0, 10.0}, 2.0);
  d.paint_permittivity({-1, 10, -1, 10, g.z(4) + 0.01, 10.0}, 8.0);
  d.add_electrode({-1, 10, -1, 10, -0.001, 0.001});
  const double z_top = g.z(g.nz - 1);
  d.add_electrode({-1, 10, -1, 10, z_top - 0.001, z_top + 0.001});
  std::vector<double> rho(g.num_nodes(), 0.0);
  const auto phi = poisson::PoissonSolver(d).solve_linear({0.0, 1.0}, rho);
  // Discrete series divider with harmonic face permittivities: four faces
  // at eps 2, the interface face at 2*2*8/10 = 3.2, three faces at eps 8:
  // V(node 4) = (4/2) / (4/2 + 1/3.2 + 3/8) = 0.7442.
  EXPECT_NEAR(phi[g.index(1, 1, 4)], 0.7442, 0.01);
}

TEST(PoissonNonlinear, ScreensChargeAgainstLinearSolve) {
  // With mobile electrons present the potential rise is screened compared
  // to the fixed-charge linear solution.
  const GridSpec g = small_grid(7, 7, 7, 0.3);
  Domain d(g);
  d.add_electrode({-1, 10, -1, 10, -0.001, 0.001});
  std::vector<double> zero(g.num_nodes(), 0.0);
  std::vector<double> fixed(g.num_nodes(), 0.0);
  d.deposit_charge(g.x(3), g.y(3), g.z(3), 2.0, fixed);

  const auto phi_lin = poisson::PoissonSolver(d).solve_linear({0.0}, fixed);

  std::vector<double> n0(g.num_nodes(), 0.0);
  n0[g.index(3, 3, 3)] = 1.0;  // electrons that multiply with exp(phi/Vt)
  // Newton starts from zero: starting on the high side of the exponential
  // is the classic divergence mode the Gummel loop never produces.
  const auto res = poisson::PoissonSolver(d).solve_nonlinear({0.0}, n0, zero, fixed,
                                                                   zero /*phi_ref*/, zero);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(res.phi_full[g.index(3, 3, 3)], phi_lin[g.index(3, 3, 3)]);
}

TEST(PoissonNonlinear, ReducesToLinearWithoutMobileCharge) {
  const GridSpec g = small_grid(5, 5, 5, 0.3);
  Domain d(g);
  d.add_electrode({-1, 10, -1, 10, -0.001, 0.001});
  std::vector<double> zero(g.num_nodes(), 0.0);
  std::vector<double> fixed(g.num_nodes(), 0.0);
  d.deposit_charge(g.x(2), g.y(2), g.z(3), -1.0, fixed);
  const auto lin = poisson::PoissonSolver(d).solve_linear({0.3}, fixed);
  const auto nl =
      poisson::PoissonSolver(d).solve_nonlinear({0.3}, zero, zero, fixed, zero, zero);
  ASSERT_TRUE(nl.converged);
  for (size_t i = 0; i < lin.size(); ++i) EXPECT_NEAR(nl.phi_full[i], lin[i], 1e-6);
}

TEST(PoissonAssembly, RhsValidatesSizes) {
  const GridSpec g = small_grid(4, 4, 4, 0.3);
  Domain d(g);
  d.add_electrode({-1, 10, -1, 10, -0.001, 0.001});
  const poisson::Assembly assembly(d);
  std::vector<double> rho(g.num_nodes(), 0.0);
  EXPECT_THROW(assembly.rhs({}, rho), std::invalid_argument);
  EXPECT_THROW(assembly.rhs({0.0}, std::vector<double>(3, 0.0)), std::invalid_argument);
}

}  // namespace
