#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/constants.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "device/geometry.hpp"
#include "device/selfconsistent.hpp"
#include "poisson/capacitance.hpp"
#include "poisson/newton.hpp"
#include "golden.hpp"
#include "support/poisson_oracles.hpp"
#include "test_support.hpp"

namespace {

using namespace gnrfet;
using tests::ThreadCountGuard;
using tests::counter;

/// The small, coarse device of the device tests.
device::DeviceSpec tiny_spec() {
  device::DeviceSpec s;
  s.channel_length_nm = 6.0;
  s.grid_step_nm = 0.35;
  s.lateral_margin_nm = 2.0;
  s.num_modes = 2;
  return s;
}

/// tiny_spec() at another lateral margin: a geometry no other test
/// builds, so a test that counts capacitance builds on it reads the same
/// counts in any test order and in one process with every other test.
device::DeviceSpec unshared_tiny_spec(double lateral_margin_nm) {
  device::DeviceSpec s = tiny_spec();
  s.lateral_margin_nm = lateral_margin_nm;
  return s;
}

device::SolveOptions fast_opts() {
  device::SolveOptions o;
  o.energy_step_eV = 5e-3;
  o.gummel_tolerance_V = 3e-3;
  return o;
}

std::vector<double> restrict_to(const poisson::CapacitanceSolver& cap,
                                const std::vector<double>& full) {
  std::vector<double> out(cap.size());
  for (size_t s = 0; s < cap.size(); ++s) out[s] = full[cap.nodes()[s]];
  return out;
}

std::vector<double> scatter(const poisson::CapacitanceSolver& cap, const std::vector<double>& on_s,
                            size_t num_nodes) {
  std::vector<double> full(num_nodes, 0.0);
  for (size_t s = 0; s < cap.size(); ++s) full[cap.nodes()[s]] = on_s[s];
  return full;
}

struct OracleComparison {
  double max_dphi_V = 0.0;
  int reduced_newton = 0;
  int oracle_newton = 0;
  bool clamp_saturated = false;  ///< the first Newton step hit max_step_V
  uint64_t reduced_cg_iterations = 0;  ///< reduced CG iterations of both reduced solves
  std::vector<double> oracle_phi_full;
};

/// One Gummel iteration's Poisson problem at bias `bias`, posed to the
/// reduced solver and the full-grid oracle and compared on S: the charge
/// comes from a transport solve on the full-grid potential `phi_ref_full`,
/// and Newton starts from `phi_init_full` (by default the same potential,
/// as in the Gummel loop).
OracleComparison compare_with_oracle(const device::DeviceGeometry& geo,
                                     const device::SelfConsistentSolver& solver,
                                     const device::BiasPoint& bias,
                                     const std::vector<double>& phi_ref_full,
                                     const std::vector<double>* phi_init_full = nullptr) {
  const poisson::CapacitanceSolver& cap = solver.capacitance();
  const std::vector<double>& init_full = phi_init_full ? *phi_init_full : phi_ref_full;
  const std::vector<double> volts = geo.electrode_voltages(0.0, bias.vd, bias.vg);
  const std::vector<double> phi_ref = restrict_to(cap, phi_ref_full);
  const std::vector<double> phi_init = restrict_to(cap, init_full);
  const device::ChargePopulations pop = solver.charge_populations(bias, phi_ref);
  const poisson::NonlinearOptions popt;

  const uint64_t cg_before = counter(metrics::Counter::kReducedCgIterations);
  const poisson::ReducedResult reduced =
      cap.solve_nonlinear(volts, pop.electrons, pop.holes, phi_ref, phi_init, popt);
  poisson::PoissonSolver oracle(geo.domain(), linalg::PreconditionerKind::kIc0);
  const size_t nodes = geo.domain().spec().num_nodes();
  const poisson::NonlinearResult full =
      oracle.solve_nonlinear(volts, scatter(cap, pop.electrons, nodes),
                             scatter(cap, pop.holes, nodes), geo.impurity_charge(),
                             phi_ref_full, init_full, popt);
  EXPECT_TRUE(reduced.converged);
  EXPECT_TRUE(full.converged);
  OracleComparison out;
  for (size_t s = 0; s < cap.size(); ++s) {
    out.max_dphi_V =
        std::max(out.max_dphi_V, std::abs(reduced.phi[s] - full.phi_full[cap.nodes()[s]]));
  }
  out.reduced_newton = reduced.iterations;
  out.oracle_newton = full.iterations;
  // The first Newton step is clamped when it moves some node by exactly
  // kMaxNewtonStep_V.
  poisson::NonlinearOptions one_step = popt;
  one_step.max_newton_iterations = 1;
  const double first_step =
      cap.solve_nonlinear(volts, pop.electrons, pop.holes, phi_ref, phi_init, one_step)
          .last_update_V;
  out.clamp_saturated = first_step == poisson::kMaxNewtonStep_V;
  out.reduced_cg_iterations = counter(metrics::Counter::kReducedCgIterations) - cg_before;
  out.oracle_phi_full = full.phi_full;
  return out;
}

std::vector<double> charge_free_potential(const device::DeviceGeometry& geo,
                                          const device::BiasPoint& bias) {
  poisson::PoissonSolver oracle(geo.domain(), linalg::PreconditionerKind::kIc0);
  return oracle.solve_linear(geo.electrode_voltages(0.0, bias.vd, bias.vg),
                             geo.impurity_charge());
}

TEST(Capacitance, ChargeNodesAreTheFreeStencilNodes) {
  const device::DeviceGeometry geo(tiny_spec());
  const device::SelfConsistentSolver solver(geo, fast_opts());
  const poisson::CapacitanceSolver& cap = solver.capacitance();
  ASSERT_GT(cap.size(), 0u);
  EXPECT_LT(cap.size(), geo.assembly().num_free());
  for (size_t s = 0; s < cap.size(); ++s) {
    EXPECT_LT(geo.assembly().free_index(cap.nodes()[s]), std::numeric_limits<size_t>::max());
    EXPECT_EQ(cap.index_of(cap.nodes()[s]), s);
    if (s > 0) {
      EXPECT_LT(cap.nodes()[s - 1], cap.nodes()[s]);
    }
  }
  EXPECT_EQ(cap.index_of(geo.domain().spec().num_nodes() + 1),
            std::numeric_limits<size_t>::max());
}

TEST(Capacitance, GreenMatrixIsExactlySymmetricAndPositive) {
  const device::DeviceGeometry geo(tiny_spec());
  const device::SelfConsistentSolver solver(geo, fast_opts());
  const poisson::CapacitanceSolver& cap = solver.capacitance();
  const size_t ns = cap.size();
  const std::vector<double>& g = cap.green();
  ASSERT_EQ(g.size(), ns * ns);
  for (size_t i = 0; i < ns; ++i) {
    EXPECT_GT(g[i * ns + i], 0.0);
    for (size_t j = 0; j < i; ++j) ASSERT_EQ(g[i * ns + j], g[j * ns + i]) << i << "," << j;
  }
}

TEST(Capacitance, BasePotentialMatchesLinearSolveOnChargeNodes) {
  // phi0_S(V) = sum_e V_e r_e + r_fixed is the charge-free full-grid solve
  // restricted to S, impurity included.
  device::DeviceSpec spec = tiny_spec();
  spec.impurities.push_back({-2.0, 1.0, 0.0, 0.4});
  const device::DeviceGeometry geo(spec);
  const device::SelfConsistentSolver solver(geo, fast_opts());
  const device::BiasPoint bias{0.45, 0.3};
  const std::vector<double> full = charge_free_potential(geo, bias);
  const std::vector<double> phi0 =
      solver.capacitance().base_potential(geo.electrode_voltages(0.0, bias.vd, bias.vg));
  const std::vector<double> expect = restrict_to(solver.capacitance(), full);
  for (size_t s = 0; s < phi0.size(); ++s) EXPECT_NEAR(phi0[s], expect[s], 1e-9) << s;
}

TEST(Capacitance, ReducedNewtonMatchesFullGridOracleOnTinyDevice) {
  const device::DeviceGeometry geo(tiny_spec());
  const device::SelfConsistentSolver solver(geo, fast_opts());
  const device::BiasPoint bias{0.5, 0.5};
  // The first two Gummel iterations of a cold start, posed to both solvers.
  std::vector<double> phi_full = charge_free_potential(geo, bias);
  for (int gummel = 0; gummel < 2; ++gummel) {
    const OracleComparison c = compare_with_oracle(geo, solver, bias, phi_full);
    EXPECT_LE(c.max_dphi_V, 1e-8) << "Gummel iteration " << gummel;
    EXPECT_EQ(c.reduced_newton, c.oracle_newton) << "Gummel iteration " << gummel;
    phi_full = c.oracle_phi_full;
  }
}

TEST(Capacitance, ReducedNewtonMatchesOracleThroughClampSaturation) {
  // Newton starts about 0.5 V below the solution: the initial potential
  // carries an extra -0.03 e on every charge node (placed on S only, so it
  // is still a consistent full-grid start), which the first steps must undo
  // through the 0.1 V clamp and its growth rule (15 Newton iterations).
  const device::DeviceGeometry geo(tiny_spec());
  const device::SelfConsistentSolver solver(geo, fast_opts());
  const device::BiasPoint bias{0.6, 0.2};
  std::vector<double> rho = geo.impurity_charge();
  for (const size_t node : solver.capacitance().nodes()) rho[node] -= 0.03;
  poisson::PoissonSolver oracle(geo.domain(), linalg::PreconditionerKind::kIc0);
  const std::vector<double> init =
      oracle.solve_linear(geo.electrode_voltages(0.0, bias.vd, bias.vg), rho);
  const OracleComparison c =
      compare_with_oracle(geo, solver, bias, charge_free_potential(geo, bias), &init);
  EXPECT_TRUE(c.clamp_saturated);
  EXPECT_GT(c.reduced_newton, 10);
  EXPECT_LE(c.max_dphi_V, 1e-8);
  EXPECT_EQ(c.reduced_newton, c.oracle_newton);
  // Each CG stops at the forcing term on the Newton residual: at most half
  // the 1,147 iterations of CG run to the relative 1e-9.
  EXPECT_LE(c.reduced_cg_iterations, 573u);
}

TEST(Capacitance, ReducedNewtonMatchesOracleOnRealN12Systems) {
  // The paper device (N = 12, 15 nm channel, default mesh): the Newton
  // systems of the first two Gummel iterations from the charge-free start
  // at an on-state and a mid-plane bias point.
  const device::DeviceGeometry geo(device::DeviceSpec{});
  const device::SelfConsistentSolver solver(geo);
  EXPECT_EQ(solver.capacitance().size(), 496u);
  uint64_t cg_iterations = 0;
  for (const device::BiasPoint bias : {device::BiasPoint{0.75, 0.5}, device::BiasPoint{0.4, 0.25}}) {
    std::vector<double> phi_full = charge_free_potential(geo, bias);
    for (int gummel = 0; gummel < 2; ++gummel) {
      const OracleComparison c = compare_with_oracle(geo, solver, bias, phi_full);
      cg_iterations += c.reduced_cg_iterations;
      EXPECT_LE(c.max_dphi_V, 1e-8) << "VG " << bias.vg << " VD " << bias.vd << " Gummel "
                                    << gummel;
      EXPECT_EQ(c.reduced_newton, c.oracle_newton)
          << "VG " << bias.vg << " VD " << bias.vd << " Gummel " << gummel;
      phi_full = c.oracle_phi_full;
    }
  }
  // Each CG stops at the forcing term on the Newton residual: at most half
  // the 504 iterations of CG run to the relative 1e-9.
  EXPECT_LE(cg_iterations, 252u);
}

TEST(Capacitance, InexactNewtonStepMeetsForcingTermOnNewtonResidual) {
  // The witness of the CG stop rule on the real N = 12 systems of the test
  // above: an unclamped first Newton step delta must leave a Newton
  // residual ||(I + G D) delta + F||_2 within max(eta_0 ||F||_2, floor), with
  // F, D and G v computed here independently of the solver. A forcing term
  // on the scaled CG residual alone does not bound this residual.
  const device::DeviceGeometry geo(device::DeviceSpec{});
  const device::SelfConsistentSolver solver(geo);
  const poisson::CapacitanceSolver& cap = solver.capacitance();
  const size_t ns = cap.size();
  const std::vector<double>& g = cap.green();
  const auto green_times = [&](const std::vector<double>& v) {
    std::vector<double> out(ns, 0.0);
    for (size_t i = 0; i < ns; ++i) {
      for (size_t j = 0; j < ns; ++j) out[i] += g[i * ns + j] * v[j];
    }
    return out;
  };
  const auto norm2 = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x * x;
    return std::sqrt(s);
  };
  poisson::NonlinearOptions one_step;
  one_step.max_newton_iterations = 1;
  int witnessed = 0;
  for (const device::BiasPoint bias : {device::BiasPoint{0.75, 0.5}, device::BiasPoint{0.4, 0.25}}) {
    const std::vector<double> volts = geo.electrode_voltages(0.0, bias.vd, bias.vg);
    const std::vector<double> phi0 = cap.base_potential(volts);
    std::vector<double> phi_ref = restrict_to(cap, charge_free_potential(geo, bias));
    for (int gummel = 0; gummel < 2; ++gummel) {
      const device::ChargePopulations pop = solver.charge_populations(bias, phi_ref);
      const poisson::ReducedResult step =
          cap.solve_nonlinear(volts, pop.electrons, pop.holes, phi_ref, phi_ref, one_step);
      if (step.last_update_V < poisson::kMaxNewtonStep_V) {
        std::vector<double> q(ns), d(ns);
        poisson::newton::linearised_charge(pop.electrons, pop.holes, phi_ref, phi_ref,
                                           constants::kRoomTemperatureKT_eV, q, d);
        const std::vector<double> gq = green_times(q);
        std::vector<double> f(ns), delta(ns), d_delta(ns);
        for (size_t s = 0; s < ns; ++s) {
          f[s] = phi_ref[s] - phi0[s] - gq[s];
          delta[s] = step.phi[s] - phi_ref[s];
          d_delta[s] = d[s] * delta[s];
        }
        const std::vector<double> gd_delta = green_times(d_delta);
        std::vector<double> residual(ns);
        for (size_t s = 0; s < ns; ++s) residual[s] = delta[s] + gd_delta[s] + f[s];
        EXPECT_LE(norm2(residual),
                  std::max(poisson::kForcingMax * norm2(f), poisson::kLinearResidualFloor_V))
            << "VG " << bias.vg << " VD " << bias.vd << " Gummel " << gummel;
        ++witnessed;
      }
      phi_ref =
          cap.solve_nonlinear(volts, pop.electrons, pop.holes, phi_ref, phi_ref).phi;
    }
  }
  EXPECT_GT(witnessed, 0);
}

TEST(Capacitance, BuildIsCountedOncePerGeometry) {
  const device::DeviceGeometry geo(unshared_tiny_spec(2.05));
  const uint64_t builds = counter(metrics::Counter::kCapacitanceBuilds);
  const uint64_t cg = counter(metrics::Counter::kReducedCgIterations);
  const device::SelfConsistentSolver solver(geo, fast_opts());
  EXPECT_EQ(counter(metrics::Counter::kCapacitanceBuilds), builds + 1);
  ASSERT_TRUE(solver.solve({0.5, 0.5}).converged);
  EXPECT_EQ(counter(metrics::Counter::kCapacitanceBuilds), builds + 1);
  EXPECT_GT(counter(metrics::Counter::kReducedCgIterations), cg);
  // A second solver of the geometry, on its own DeviceGeometry and with
  // other options, shares the first one's matrix.
  const device::DeviceGeometry again(unshared_tiny_spec(2.05));
  const device::SelfConsistentSolver second(again, device::SolveOptions{});
  EXPECT_EQ(counter(metrics::Counter::kCapacitanceBuilds), builds + 1);
  EXPECT_EQ(second.capacitance().green().data(), solver.capacitance().green().data());
}

TEST(Capacitance, ImpurityVariantsShareOneBuild) {
  // {N, 0} and {N, -2}: one build between them, one G, and each its own
  // fixed-charge response (phi0_S at zero electrode voltages).
  device::DeviceSpec charged = unshared_tiny_spec(2.1);
  charged.impurities.push_back({-2.0, 1.0, 0.0, 0.4});
  const device::DeviceGeometry ideal_geo(unshared_tiny_spec(2.1));
  const device::DeviceGeometry charged_geo(charged);
  const uint64_t builds = counter(metrics::Counter::kCapacitanceBuilds);
  const device::SelfConsistentSolver ideal(ideal_geo, fast_opts());
  const device::SelfConsistentSolver impure(charged_geo, fast_opts());
  EXPECT_EQ(counter(metrics::Counter::kCapacitanceBuilds), builds + 1);
  EXPECT_EQ(impure.capacitance().green().data(), ideal.capacitance().green().data());
  const std::vector<double> zero_volts(4, 0.0);
  const std::vector<double> r_ideal = ideal.capacitance().base_potential(zero_volts);
  const std::vector<double> r_impure = impure.capacitance().base_potential(zero_volts);
  ASSERT_EQ(r_ideal.size(), r_impure.size());
  for (const double r : r_ideal) EXPECT_EQ(r, 0.0);
  // A negative charge lowers the potential on every charge node.
  for (size_t s = 0; s < r_impure.size(); ++s) EXPECT_LT(r_impure[s], 0.0) << s;
}

TEST(CapacitanceParallel, BuildBitIdenticalAcrossThreadCounts) {
  // Every column starts from zero with a freshly factored IC(0), so G and
  // the responses cannot depend on how the columns were chunked over
  // threads. Also the TSan target for the parallel build. The matrices are
  // built directly: through SelfConsistentSolver the second would be the
  // first one again.
  device::DeviceSpec spec = tiny_spec();
  spec.impurities.push_back({1.0, 1.0, 0.0, 0.4});
  const device::DeviceGeometry geo(spec);
  const auto build = [&](int threads) {
    ThreadCountGuard guard(threads);
    return std::make_shared<const poisson::CapacitanceMatrix>(geo.assembly(),
                                                              geo.ribbon_stencils());
  };
  const auto m1 = build(1);
  const auto m4 = build(4);
  const auto same_bits = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  EXPECT_TRUE(same_bits(m1->green(), m4->green()));
  EXPECT_TRUE(same_bits(m1->electrode_response(), m4->electrode_response()));
  const std::vector<double> volts = geo.electrode_voltages(0.0, 0.3, 0.5);
  const std::vector<double> phi1 =
      poisson::CapacitanceSolver(m1, geo.assembly(), geo.impurity_charge()).base_potential(volts);
  const std::vector<double> phi4 =
      poisson::CapacitanceSolver(m4, geo.assembly(), geo.impurity_charge()).base_potential(volts);
  EXPECT_TRUE(same_bits(phi1, phi4));
}

TEST(CapacitanceParallel, ConcurrentFirstUseBuildsOnce) {
  // Four threads construct solvers for one geometry no solver has used yet:
  // the memo builds its matrix once and hands every solver the same one.
  ThreadCountGuard threads(4);
  const device::DeviceSpec spec = unshared_tiny_spec(2.15);
  const uint64_t builds = counter(metrics::Counter::kCapacitanceBuilds);
  std::vector<const double*> green(4, nullptr);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < green.size(); ++t) {
    workers.emplace_back([&, t] {
      const device::DeviceGeometry geo(spec);
      green[t] = device::SelfConsistentSolver(geo, fast_opts()).capacitance().green().data();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter(metrics::Counter::kCapacitanceBuilds), builds + 1);
  for (const double* g : green) EXPECT_EQ(g, green[0]);
}

TEST(CapacitanceGolden, GreenAndResponsesBitPinned) {
  // Bit-exact pins of G and of phi0_S(V) (electrode plus fixed-charge
  // responses) for the paper devices: N = 12 without and with a -1 e oxide
  // impurity, and N = 9, whose 310 charge nodes give the column blocks a
  // different tail. Any change to the build's per-column arithmetic moves
  // these hashes.
  struct Pin {
    int n_index;
    double impurity_q;
    size_t ns;
    uint64_t green_hash;
    uint64_t base_hash;
  };
  const Pin pins[] = {
      {12, 0.0, 496, 0xe883388d9999ebfdull, 0x0488af16377d5a9eull},
      {12, -1.0, 496, 0xe883388d9999ebfdull, 0xd62b66d5d69bf254ull},
      {9, 0.0, 310, 0x8e739471032c822eull, 0x4707efdf30415182ull},
  };
  for (const Pin& pin : pins) {
    device::DeviceSpec spec;
    spec.n_index = pin.n_index;
    if (pin.impurity_q != 0.0) spec.impurities.push_back({pin.impurity_q, 1.0, 0.0, 0.4});
    const device::DeviceGeometry geo(spec);
    const device::SelfConsistentSolver solver(geo);
    const poisson::CapacitanceSolver& cap = solver.capacitance();
    ASSERT_EQ(cap.size(), pin.ns) << "N " << pin.n_index;
    const std::vector<double> phi0 = cap.base_potential(geo.electrode_voltages(0.0, 0.3, 0.5));
    EXPECT_EQ(tests::fnv1a(cap.green()), pin.green_hash)
        << "N " << pin.n_index << " q " << pin.impurity_q;
    EXPECT_EQ(tests::fnv1a(phi0), pin.base_hash)
        << "N " << pin.n_index << " q " << pin.impurity_q;
  }
}

}  // namespace
