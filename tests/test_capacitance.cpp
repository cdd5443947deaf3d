#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "device/geometry.hpp"
#include "device/selfconsistent.hpp"
#include "poisson/capacitance.hpp"
#include "poisson/solver.hpp"
#include "golden.hpp"

namespace {

using namespace gnrfet;

/// Scoped thread-count override restoring the previous value on exit.
struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) : old_(par::thread_count()) { par::set_thread_count(n); }
  ~ThreadCountGuard() { par::set_thread_count(old_); }
  int old_;
};

/// The small, coarse device of the device tests.
device::DeviceSpec tiny_spec() {
  device::DeviceSpec s;
  s.channel_length_nm = 6.0;
  s.grid_step_nm = 0.35;
  s.lateral_margin_nm = 2.0;
  s.num_modes = 2;
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
  poisson::NonlinearOptions popt;
  popt.thermal_voltage_V = solver.options().kT_eV;

  const poisson::ReducedResult reduced =
      cap.solve_nonlinear(volts, pop.electrons, pop.holes, phi_ref, phi_init, popt);
  poisson::PoissonSolver oracle(geo.assembly(), linalg::PreconditionerKind::kIc0);
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
  // max_step_V.
  poisson::NonlinearOptions one_step = popt;
  one_step.max_newton_iterations = 1;
  const double first_step =
      cap.solve_nonlinear(volts, pop.electrons, pop.holes, phi_ref, phi_init, one_step)
          .last_update_V;
  out.clamp_saturated = first_step == popt.max_step_V;
  out.oracle_phi_full = full.phi_full;
  return out;
}

std::vector<double> charge_free_potential(const device::DeviceGeometry& geo,
                                          const device::BiasPoint& bias) {
  poisson::PoissonSolver oracle(geo.assembly(), linalg::PreconditionerKind::kIc0);
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
  poisson::PoissonSolver oracle(geo.assembly(), linalg::PreconditionerKind::kIc0);
  const std::vector<double> init =
      oracle.solve_linear(geo.electrode_voltages(0.0, bias.vd, bias.vg), rho);
  const OracleComparison c =
      compare_with_oracle(geo, solver, bias, charge_free_potential(geo, bias), &init);
  EXPECT_TRUE(c.clamp_saturated);
  EXPECT_GT(c.reduced_newton, 10);
  EXPECT_LE(c.max_dphi_V, 1e-8);
  EXPECT_EQ(c.reduced_newton, c.oracle_newton);
}

TEST(Capacitance, ReducedNewtonMatchesOracleOnRealN12Systems) {
  // The paper device (N = 12, 15 nm channel, default mesh): the Newton
  // systems of the first two Gummel iterations from the charge-free start
  // at an on-state and a mid-plane bias point.
  const device::DeviceGeometry geo(device::DeviceSpec{});
  const device::SelfConsistentSolver solver(geo);
  EXPECT_EQ(solver.capacitance().size(), 496u);
  for (const device::BiasPoint bias : {device::BiasPoint{0.75, 0.5}, device::BiasPoint{0.4, 0.25}}) {
    std::vector<double> phi_full = charge_free_potential(geo, bias);
    for (int gummel = 0; gummel < 2; ++gummel) {
      const OracleComparison c = compare_with_oracle(geo, solver, bias, phi_full);
      EXPECT_LE(c.max_dphi_V, 1e-8) << "VG " << bias.vg << " VD " << bias.vd << " Gummel "
                                    << gummel;
      EXPECT_EQ(c.reduced_newton, c.oracle_newton)
          << "VG " << bias.vg << " VD " << bias.vd << " Gummel " << gummel;
      phi_full = c.oracle_phi_full;
    }
  }
}

TEST(Capacitance, BuildIsCountedOncePerSolver) {
  const auto counter = [](metrics::Counter c) {
    return metrics::snapshot().counters[static_cast<size_t>(c)];
  };
  const device::DeviceGeometry geo(tiny_spec());
  const uint64_t builds = counter(metrics::Counter::kCapacitanceBuilds);
  const uint64_t cg = counter(metrics::Counter::kReducedCgIterations);
  const device::SelfConsistentSolver solver(geo, fast_opts());
  EXPECT_EQ(counter(metrics::Counter::kCapacitanceBuilds), builds + 1);
  ASSERT_TRUE(solver.solve({0.5, 0.5}).converged);
  EXPECT_EQ(counter(metrics::Counter::kCapacitanceBuilds), builds + 1);
  EXPECT_GT(counter(metrics::Counter::kReducedCgIterations), cg);
}

TEST(CapacitanceParallel, BuildBitIdenticalAcrossThreadCounts) {
  // Every column starts from zero with a freshly factored IC(0), so G and
  // the responses cannot depend on how the columns were chunked over
  // threads. Also the TSan target for the parallel build.
  device::DeviceSpec spec = tiny_spec();
  spec.impurities.push_back({1.0, 1.0, 0.0, 0.4});
  const device::DeviceGeometry geo(spec);
  std::vector<double> g1, phi1;
  {
    ThreadCountGuard threads(1);
    const device::SelfConsistentSolver solver(geo, fast_opts());
    g1 = solver.capacitance().green();
    phi1 = solver.capacitance().base_potential(geo.electrode_voltages(0.0, 0.3, 0.5));
  }
  ThreadCountGuard threads(4);
  const device::SelfConsistentSolver solver(geo, fast_opts());
  const std::vector<double>& g4 = solver.capacitance().green();
  const std::vector<double> phi4 =
      solver.capacitance().base_potential(geo.electrode_voltages(0.0, 0.3, 0.5));
  ASSERT_EQ(g1.size(), g4.size());
  EXPECT_EQ(std::memcmp(g1.data(), g4.data(), g1.size() * sizeof(double)), 0);
  ASSERT_EQ(phi1.size(), phi4.size());
  EXPECT_EQ(std::memcmp(phi1.data(), phi4.data(), phi1.size() * sizeof(double)), 0);
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
