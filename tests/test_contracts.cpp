// Corrupted-input tests for the physics-contract layer: each feeds a solver
// an input that violates one documented invariant and asserts that the
// resulting ContractViolation names the right subsystem and invariant —
// i.e. that a corrupted simulation dies loudly at the layer that knows why,
// not with a NaN result three layers up.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "circuit/dc.hpp"
#include "circuit/elements.hpp"
#include "circuit/mna.hpp"
#include "circuit/netlists.hpp"
#include "circuit/transient.hpp"
#include "common/contracts.hpp"
#include "device/tablegen.hpp"
#include "gnr/hamiltonian.hpp"
#include "gnr/lattice.hpp"
#include "linalg/dense.hpp"
#include "model/table2d.hpp"
#include "negf/batch_rgf.hpp"
#include "negf/rgf.hpp"
#include "poisson/assembly.hpp"
#include "poisson/capacitance.hpp"
#include "poisson/grid.hpp"
#include "synthetic_device.hpp"
#include "test_support.hpp"

namespace {

using namespace gnrfet;
using contracts::ContractViolation;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Runs `fn`, requires it to throw ContractViolation, and returns the
/// exception for field checks.
template <typename Fn>
ContractViolation capture_violation(Fn&& fn) {
  try {
    fn();
  } catch (const ContractViolation& v) {
    return v;
  }
  ADD_FAILURE() << "expected a ContractViolation, none was thrown";
  return ContractViolation("none", "none", "", "", 0);
}

TEST(Contracts, ViolationCarriesSubsystemInvariantAndLocation) {
  // contracts::fail is what the macros expand to.
  const ContractViolation v = capture_violation([] {
    contracts::fail("negf", "example-invariant", "arithmetic still works",
                    "tests/test_contracts.cpp", 42);
  });
  EXPECT_EQ(v.subsystem(), "negf");
  EXPECT_EQ(v.invariant(), "example-invariant");
  const std::string msg = v.what();
  EXPECT_NE(msg.find("negf/example-invariant"), std::string::npos) << msg;
  EXPECT_NE(msg.find("test_contracts.cpp"), std::string::npos) << msg;
  EXPECT_NE(msg.find("arithmetic still works"), std::string::npos) << msg;
}

TEST(Contracts, FiniteHelperAndAscendingHelper) {
  EXPECT_TRUE(contracts::all_finite(std::vector<double>{0.0, -1.5, 3e300}));
  EXPECT_FALSE(contracts::all_finite(std::vector<double>{0.0, kNan}));
  EXPECT_FALSE(contracts::all_finite(std::vector<double>{std::numeric_limits<double>::infinity()}));
  EXPECT_TRUE(contracts::strictly_ascending(std::vector<double>{-1.0, 0.0, 0.5}));
  EXPECT_FALSE(contracts::strictly_ascending(std::vector<double>{0.0, 0.0, 0.5}));
  EXPECT_FALSE(contracts::strictly_ascending(std::vector<double>{0.0, kNan, 1.0}));
}

TEST(Contracts, ChecksAreCompiledInByDefault) {
  EXPECT_THROW(GNRFET_REQUIRE("common", "always-false", false, "fires"), ContractViolation);
}

// --- negf ---------------------------------------------------------------

TEST(Contracts, NonHermitianHamiltonianNamesNegf) {
  gnr::BlockTridiagonal h;
  linalg::CMatrix d0(2, 2);
  d0(0, 0) = 0.1;
  d0(1, 1) = -0.1;
  d0(0, 1) = {0.3, 0.0};
  d0(1, 0) = {0.7, 0.0};  // != conj(d0(0,1)): not Hermitian
  h.diag = {d0, d0};
  h.upper = {linalg::CMatrix(2, 2)};
  const linalg::CMatrix sigma(2, 2);

  const ContractViolation v =
      capture_violation([&] { tests::rgf_solve(h, 0.0, 1e-6, sigma, sigma); });
  EXPECT_EQ(v.subsystem(), "negf");
  EXPECT_EQ(v.invariant(), "hermitian-hamiltonian");
}

TEST(Contracts, NanChainNamesNegf) {
  negf::ScalarChain chain;
  chain.onsite = {0.0, kNan, 0.0};
  chain.hopping = {-2.7, -2.7};
  chain.gamma_left = chain.gamma_right = 0.05;
  negf::ScalarRgfBatchWorkspace ws;
  negf::ScalarRgfBatchResult out;
  const double energy = 0.0;

  const ContractViolation v = capture_violation(
      [&] { negf::scalar_rgf_solve_batch(chain, &energy, 1, 1e-6, ws, out); });
  EXPECT_EQ(v.subsystem(), "negf");
  EXPECT_EQ(v.invariant(), "finite-chain");
}

TEST(Contracts, NonPositiveBroadeningNamesNegf) {
  negf::ScalarChain chain;
  chain.onsite = {0.0, 0.0};
  chain.hopping = {-2.7};
  chain.gamma_left = chain.gamma_right = 0.05;
  negf::ScalarRgfBatchWorkspace ws;
  negf::ScalarRgfBatchResult out;
  const double energy = 0.0;

  const ContractViolation v = capture_violation(
      [&] { negf::scalar_rgf_solve_batch(chain, &energy, 1, 0.0, ws, out); });
  EXPECT_EQ(v.subsystem(), "negf");
  EXPECT_EQ(v.invariant(), "positive-broadening");
}

// --- gnr ----------------------------------------------------------------

TEST(Contracts, NanOnsiteEnergyNamesGnr) {
  const gnr::Lattice lat = gnr::Lattice::armchair(9, 4, 0.0);
  std::vector<double> onsite(lat.atoms().size(), 0.0);
  onsite[onsite.size() / 2] = kNan;

  const ContractViolation v =
      capture_violation([&] { gnr::build_hamiltonian(lat, {}, onsite); });
  EXPECT_EQ(v.subsystem(), "gnr");
  EXPECT_EQ(v.invariant(), "finite-onsite");
}

// --- poisson ------------------------------------------------------------

TEST(Contracts, NanChargeNamesPoisson) {
  poisson::GridSpec g;
  g.nx = g.ny = g.nz = 4;
  g.dx = g.dy = g.dz = 0.5;
  poisson::Domain d(g);
  d.add_electrode({0.0, 1.5, 0.0, 1.5, 0.0, 0.0});  // z = 0 face
  const poisson::Assembly assembly(d);
  std::vector<double> rho(g.num_nodes(), 0.0);
  rho[7] = kNan;
  const auto matrix = std::make_shared<const poisson::CapacitanceMatrix>(
      assembly, std::vector{d.stencil(0.75, 0.75, 0.75)});

  const ContractViolation v =
      capture_violation([&] { poisson::CapacitanceSolver(matrix, assembly, rho); });
  EXPECT_EQ(v.subsystem(), "poisson");
  EXPECT_EQ(v.invariant(), "finite-charge");
}

TEST(Contracts, NanPopulationNamesPoissonInNonlinearSolve) {
  poisson::GridSpec g;
  g.nx = g.ny = g.nz = 4;
  g.dx = g.dy = g.dz = 0.5;
  poisson::Domain d(g);
  d.add_electrode({0.0, 1.5, 0.0, 1.5, 0.0, 0.0});  // z = 0 face
  const poisson::Assembly assembly(d);
  const poisson::CapacitanceSolver cap(std::make_shared<const poisson::CapacitanceMatrix>(
                                           assembly, std::vector{d.stencil(0.75, 0.75, 0.75)}),
                                       assembly, std::vector<double>(g.num_nodes(), 0.0));
  const size_t n = cap.size();
  std::vector<double> n0(n, 0.0), p0(n, 0.0), ref(n, 0.0), init(n, 0.0);
  n0[3] = kNan;

  const ContractViolation v =
      capture_violation([&] { cap.solve_nonlinear({0.0}, n0, p0, ref, init); });
  EXPECT_EQ(v.subsystem(), "poisson");
  EXPECT_EQ(v.invariant(), "finite-charge");
}

// --- circuit ------------------------------------------------------------

TEST(Contracts, ZeroTimestepNamesCircuit) {
  circuit::Circuit ckt;
  const circuit::NodeId a = ckt.new_node();
  ckt.add(std::make_unique<circuit::VoltageSource>(a, circuit::kGround, 1.0));
  circuit::TransientOptions opts;
  opts.dt = 0.0;

  const ContractViolation v = capture_violation([&] { circuit::run_transient(ckt, opts); });
  EXPECT_EQ(v.subsystem(), "circuit");
  EXPECT_EQ(v.invariant(), "positive-timestep");
}

TEST(Contracts, DegenerateVoltageSourceNamesCircuitStructuralRank) {
  // Both terminals on ground: the source's branch row stamps nothing, so
  // the MNA system is structurally singular in that row.
  circuit::Circuit ckt;
  const circuit::NodeId a = ckt.new_node();
  ckt.add(std::make_unique<circuit::Resistor>(a, circuit::kGround, 1e3));
  ckt.add(std::make_unique<circuit::VoltageSource>(circuit::kGround, circuit::kGround, 1.0));

  const ContractViolation v = capture_violation([&] { circuit::solve_dc(ckt); });
  EXPECT_EQ(v.subsystem(), "circuit");
  EXPECT_EQ(v.invariant(), "structural-rank");
}

TEST(Contracts, ZeroOhmResistorNamesCircuitFiniteStamp) {
  circuit::Circuit ckt;
  const circuit::NodeId a = ckt.new_node();
  ckt.add(std::make_unique<circuit::VoltageSource>(a, circuit::kGround, 1.0));
  const circuit::NodeId b = ckt.new_node();
  ckt.add(std::make_unique<circuit::Resistor>(a, b, 0.0));  // 1/R = inf
  ckt.add(std::make_unique<circuit::Resistor>(b, circuit::kGround, 1e3));

  const ContractViolation v = capture_violation([&] { circuit::solve_dc(ckt); });
  EXPECT_EQ(v.subsystem(), "circuit");
  EXPECT_EQ(v.invariant(), "finite-stamp");
}

TEST(Contracts, NanIterateThroughFetTablesNamesCircuitFiniteStamp) {
  // A non-finite Newton iterate reaches the FET lookup tables, which return
  // a NaN sample; the stamp check stops the solve (Table2D::sample used to
  // crash on a NaN coordinate).
  const circuit::InverterModels inv = synthetic::synthetic_inverter();
  synthetic::Latch latch = synthetic::build_latch(inv, inv, 0.4);
  std::vector<double> seed(latch.ckt.num_unknowns(), 0.0);
  seed[static_cast<size_t>(latch.ckt.unknown_of_node(latch.q))] = kNan;

  const ContractViolation v = capture_violation([&] { circuit::solve_dc(latch.ckt, seed); });
  EXPECT_EQ(v.subsystem(), "circuit");
  EXPECT_EQ(v.invariant(), "finite-stamp");
}

// --- device tables ------------------------------------------------------

device::DeviceTable tiny_table() {
  device::DeviceTable t;
  t.vg = {0.0, 0.25, 0.5};
  t.vd = {0.0, 0.5};
  t.current_A.assign(t.vg.size() * t.vd.size(), 1e-6);
  t.charge_C.assign(t.vg.size() * t.vd.size(), 1e-18);
  t.band_gap_eV = 0.7;
  return t;
}

/// Round-trips `t` through save_table/load_table; load_table runs the
/// table validation contract against the corrupted payload.
void save_and_load(const device::DeviceTable& t, const std::string& name) {
  const std::string path = "contracts_" + name + ".csv";
  device::save_table(t, path, "corrupted-table-test");
  struct Cleanup {
    std::string path;
    ~Cleanup() { std::remove(path.c_str()); }
  } cleanup{path};
  device::load_table(path);
}

TEST(Contracts, NanTableCurrentNamesDevice) {
  device::DeviceTable t = tiny_table();
  t.current_A[2] = kNan;
  const ContractViolation v = capture_violation([&] { save_and_load(t, "nan_current"); });
  EXPECT_EQ(v.subsystem(), "device/tablegen");
  EXPECT_EQ(v.invariant(), "finite-table");
}

TEST(Contracts, NonMonotoneBiasAxisNamesDevice) {
  device::DeviceTable t = tiny_table();
  t.vg = {0.0, 0.5, 0.25};  // not ascending
  const ContractViolation v = capture_violation([&] { save_and_load(t, "bad_axis"); });
  EXPECT_EQ(v.subsystem(), "device/tablegen");
  EXPECT_EQ(v.invariant(), "monotone-bias-axes");
}

// --- model --------------------------------------------------------------

TEST(Contracts, NanInterpolationTableNamesModel) {
  std::vector<double> values(9, 1.0);
  values[4] = kNan;
  const ContractViolation v = capture_violation([&] {
    model::Table2D({0.0, 1.0, 2.0}, {0.0, 1.0, 2.0}, values);
  });
  EXPECT_EQ(v.subsystem(), "model");
  EXPECT_EQ(v.invariant(), "finite-table");
}

}  // namespace
