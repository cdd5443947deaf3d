#include "circuit/mna.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace gnrfet::circuit {

void check_mna_stamp(const Circuit& ckt, const MnaWorkspace& ws) {
  // Row by row in the order of a dense scan, so the first bad entry named
  // is the one a full n x n check would name.
  const size_t n = ckt.num_unknowns();
  const double* jac = ws.jac.data();
  auto p = ws.pattern.begin();
  for (size_t i = 0; i < n; ++i) {
    GNRFET_CHECK_FINITE("circuit", "finite-stamp", ws.res[i]);
    for (; p != ws.pattern.end() && *p < (i + 1) * n; ++p) {
      GNRFET_REQUIRE("circuit", "finite-stamp", std::isfinite(jac[*p]),
                     strings::format("Jacobian(%zu, %zu) = %g (degenerate element stamp?)", i,
                                     *p - i * n, jac[*p]));
    }
  }
  for (size_t b = 0; b < ckt.num_branches(); ++b) {
    const size_t row = ckt.unknown_of_branch(b);
    bool structural = false;
    for (auto q = std::lower_bound(ws.pattern.begin(), ws.pattern.end(), row * n);
         q != ws.pattern.end() && *q < (row + 1) * n && !structural; ++q) {
      structural = jac[*q] != 0.0;
    }
    GNRFET_REQUIRE("circuit", "structural-rank", structural,
                   strings::format("branch row %zu is all-zero: voltage source shorted to "
                                   "itself or stamped between identical nodes",
                                   b));
  }
}

size_t Circuit::add(std::unique_ptr<Element> element) {
  element->assign_slots(num_branches_, state_size_);
  num_branches_ += element->num_branches();
  state_size_ += element->state_size();
  elements_.push_back(std::move(element));
  return elements_.size() - 1;
}

size_t Circuit::num_unknowns() const { return num_nodes() - 1 + num_branches_; }

void MnaWorkspace::record(size_t k) {
  in_pattern[k] = 1;
  pattern.insert(std::lower_bound(pattern.begin(), pattern.end(), k), k);
}

void MnaWorkspace::stamp(const Circuit& ckt, const std::vector<double>& x,
                         const TransientContext& ctx) {
  if (ckt.num_unknowns() != res.size()) {
    throw std::invalid_argument("MnaWorkspace::stamp: circuit size does not match the workspace");
  }
  double* a = jac.data();
  for (const size_t k : pattern) a[k] = 0.0;
  std::fill(res.begin(), res.end(), 0.0);
  Stamper st(ckt, x, *this);
  for (const auto& e : ckt.elements()) e->stamp(st, ctx);
}

bool newton_solve(const Circuit& ckt, const TransientContext& ctx, const NewtonPolicy& policy,
                  std::vector<double>& x, MnaWorkspace& ws) {
  const size_t n = ckt.num_unknowns();
  const size_t nodes = n - ckt.num_branches();
  double clamp_V = policy.clamp_V;
  for (int it = 0; it < policy.max_iterations; ++it) {
    if (policy.clamp_halving_period > 0 && it > 0 && it % policy.clamp_halving_period == 0) {
      clamp_V *= 0.5;
    }
    ws.stamp(ckt, x, ctx);
    check_mna_stamp(ckt, ws);
    double res_norm = 0.0;
    for (const double r : ws.res) res_norm = std::max(res_norm, std::abs(r));
    // Tiny diagonal regularization (gmin) keeps floating internal nodes
    // solvable without visibly perturbing operating points.
    for (size_t i = 0; i < nodes; ++i) ws.add_jacobian(i, i, 1e-12);
    for (size_t i = 0; i < n; ++i) ws.rhs[i] = -ws.res[i];
    try {
      ws.lu.factor(ws.jac, ws.pattern);
    } catch (const std::runtime_error&) {
      return false;  // singular Jacobian
    }
    ws.lu.solve_into(ws.rhs, ws.dx);
    double max_dx = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = i < nodes ? std::clamp(ws.dx[i], -clamp_V, clamp_V) : ws.dx[i];
      x[i] += d;
      if (i < nodes) max_dx = std::max(max_dx, std::abs(d));
    }
    if (max_dx < policy.update_tol_V && res_norm < policy.residual_tol_A) return true;
  }
  return false;
}

}  // namespace gnrfet::circuit
