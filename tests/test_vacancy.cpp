#include <gtest/gtest.h>

#include "gnr/hamiltonian.hpp"
#include "gnr/lattice.hpp"
#include "negf/selfenergy.hpp"
#include "negf/rgf.hpp"
#include "negf/transport.hpp"
#include "support/linalg_oracles.hpp"
#include "support/negf_oracles.hpp"

namespace {

using namespace gnrfet;
using gnr::Lattice;
using gnr::TightBindingParams;

TEST(Vacancy, RemovesOneAtomAndItsBonds) {
  const Lattice lat = Lattice::armchair(9, 8, 0.12);
  const size_t victim = lat.atoms().size() / 2;
  int victim_bonds = 0;
  for (const auto& b : lat.bonds()) {
    if (b.a == victim || b.b == victim) ++victim_bonds;
  }
  const Lattice def = lat.with_vacancy(victim);
  EXPECT_EQ(def.atoms().size(), lat.atoms().size() - 1);
  EXPECT_EQ(def.bonds().size(), lat.bonds().size() - static_cast<size_t>(victim_bonds));
  // Slice partition still covers all atoms.
  size_t total = 0;
  for (const auto& s : def.slice_atoms()) total += s.size();
  EXPECT_EQ(total, def.atoms().size());
  EXPECT_THROW(lat.with_vacancy(lat.atoms().size()), std::invalid_argument);
}

TEST(Vacancy, HamiltonianStaysHermitianBlockTridiagonal) {
  const Lattice def = Lattice::armchair(12, 10, 0.12).with_vacancy(60);
  const auto h = gnr::build_hamiltonian(def, {2.7, 0.12});
  const auto dense = negf::to_dense(h);
  linalg::CMatrix diff = dense;
  diff -= linalg::hermitian_part(dense);
  EXPECT_LT(linalg::frobenius_norm(diff), 1e-12);
}

TEST(Vacancy, ScattersAndReducesOnCurrent) {
  // A mid-channel vacancy must reduce the ballistic current of the
  // real-space solver (paper Sec. 4: vacancies are a performance-relevant
  // defect class).
  const TightBindingParams p{2.7, 0.12};
  const Lattice ideal = Lattice::armchair(9, 14, p.edge_delta);
  // Pick a mid-channel atom.
  size_t victim = 0;
  double best = 1e9;
  for (size_t i = 0; i < ideal.atoms().size(); ++i) {
    const double d = std::abs(ideal.atoms()[i].x_nm - 0.5 * ideal.length_nm()) +
                     std::abs(ideal.atoms()[i].y_nm - 0.5 * ideal.width_nm());
    if (d < best) {
      best = d;
      victim = i;
    }
  }
  const Lattice defect = ideal.with_vacancy(victim);

  negf::TransportOptions opt;
  opt.mu_drain_eV = -0.4;
  opt.energy_step_eV = 4e-3;
  const std::vector<double> onsite_ideal(ideal.atoms().size(), -0.5);
  const std::vector<double> onsite_defect(defect.atoms().size(), -0.5);
  const auto i_ideal = negf::solve_real_space(ideal, p, onsite_ideal, opt);
  const auto i_defect = negf::solve_real_space(defect, p, onsite_defect, opt);
  EXPECT_GT(i_ideal.current_A, 0.0);
  EXPECT_LT(i_defect.current_A, 0.97 * i_ideal.current_A);
}

TEST(EdgeRoughness, RemovesOnlyEdgeAtomsReproducibly) {
  const Lattice lat = Lattice::armchair(12, 16, 0.12);
  const Lattice r1 = lat.with_edge_roughness(0.3, 42);
  const Lattice r2 = lat.with_edge_roughness(0.3, 42);
  EXPECT_EQ(r1.atoms().size(), r2.atoms().size());  // reproducible
  EXPECT_LT(r1.atoms().size(), lat.atoms().size());
  // Removed atoms were all on the edges: interior count is unchanged.
  size_t interior_before = 0, interior_after = 0;
  for (const auto& a : lat.atoms()) {
    if (a.dimer_line != 0 && a.dimer_line != 11) ++interior_before;
  }
  for (const auto& a : r1.atoms()) {
    if (a.dimer_line != 0 && a.dimer_line != 11) ++interior_after;
  }
  EXPECT_EQ(interior_before, interior_after);
  EXPECT_THROW(lat.with_edge_roughness(1.0, 1), std::invalid_argument);
}

TEST(EdgeRoughness, DegradesBallisticCurrent) {
  // Ref. [17] of the paper: edge roughness scatters carriers and lowers
  // the on-current of the ballistic device.
  const TightBindingParams p{2.7, 0.12};
  const Lattice ideal = Lattice::armchair(9, 14, p.edge_delta);
  const Lattice rough = ideal.with_edge_roughness(0.25, 7);
  negf::TransportOptions opt;
  opt.mu_drain_eV = -0.4;
  opt.energy_step_eV = 4e-3;
  const auto i_ideal =
      negf::solve_real_space(ideal, p, std::vector<double>(ideal.atoms().size(), -0.5), opt);
  const auto i_rough =
      negf::solve_real_space(rough, p, std::vector<double>(rough.atoms().size(), -0.5), opt);
  EXPECT_LT(i_rough.current_A, 0.9 * i_ideal.current_A);
  EXPECT_GT(i_rough.current_A, 0.0);
}

}  // namespace
