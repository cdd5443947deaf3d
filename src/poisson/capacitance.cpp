#include "poisson/capacitance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/constants.hpp"
#include "common/contracts.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "linalg/kernels.hpp"
#include "linalg/pcg.hpp"
#include "linalg/preconditioner.hpp"
#include "poisson/newton.hpp"

namespace gnrfet::poisson {

namespace {

/// Column blocks per parallel chunk of the G build.
constexpr size_t kBlockGrain = 1;

/// Relative PCG tolerance of every column: G, electrode and fixed charge.
constexpr double kBuildTolerance = 1e-10;

/// Free nodes with a nonzero weight in some stencil, ascending.
std::vector<size_t> charge_nodes(const Assembly& assembly,
                                 const std::vector<Domain::CicStencil>& stencils) {
  std::vector<size_t> nodes;
  for (const Domain::CicStencil& st : stencils) {
    for (size_t p = 0; p < 8; ++p) {
      if (st.weight[p] != 0.0 &&
          assembly.free_index(st.node[p]) != std::numeric_limits<size_t>::max()) {
        nodes.push_back(st.node[p]);
      }
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

/// Reusable vectors of one reduced CG solve.
struct CgScratch {
  std::vector<double> r, p, ap, w;
};

/// Plain CG on M = I + S G S, S = diag(sqrt_d): SPD with every eigenvalue
/// >= 1. Starts from z = 0. With delta = -F - G S z, the Newton residual of
/// the step is (I + G D) delta + F = G S r for the CG residual r = b - M z,
/// and ||G S r||_2 <= ||G||_2 ||S r||_2 <= ||G||_1 ||S r||_2 (G is
/// symmetric). So CG stops as soon as green_norm1 * ||S r||_2 <=
/// newton_target, which bounds the Newton residual itself: a bound on ||r||
/// alone does not, since G S amplifies it wherever the charge saturates and
/// D is huge. It also stops at the relative tolerance of the full-grid
/// Newton solve, whichever comes first. Returns whether either test was met.
bool reduced_cg(const std::vector<double>& green, double green_norm1,
                const std::vector<double>& sqrt_d, const std::vector<double>& b,
                double newton_target, std::vector<double>& z, CgScratch& ws) {
  trace::Span span("linalg", "reduced_cg");
  constexpr double kRelTolerance = 1e-9;
  constexpr double kAbsTolerance = 1e-14;
  const size_t n = b.size();
  const size_t max_iterations = 10 * n + 10;
  std::fill(z.begin(), z.end(), 0.0);
  ws.r = b;
  ws.p = b;
  ws.ap.resize(n);
  ws.w.resize(n);
  const double b_norm = std::sqrt(std::max(linalg::kernels::dot(b, b), 1e-300));
  double rr = linalg::kernels::dot(ws.r, ws.r);
  size_t it = 0;
  bool converged = false;
  for (; it < max_iterations; ++it) {
    const double r_norm = std::sqrt(rr);
    for (size_t i = 0; i < n; ++i) ws.w[i] = sqrt_d[i] * ws.r[i];
    const double newton_residual_bound =
        green_norm1 * std::sqrt(linalg::kernels::dot(ws.w, ws.w));
    if (newton_residual_bound <= newton_target || r_norm <= kRelTolerance * b_norm ||
        r_norm <= kAbsTolerance) {
      converged = true;
      break;
    }
    // ap = p + S G S p
    for (size_t i = 0; i < n; ++i) ws.w[i] = sqrt_d[i] * ws.p[i];
    linalg::kernels::dense_matvec(green.data(), n, ws.w.data(), ws.ap.data());
    for (size_t i = 0; i < n; ++i) ws.ap[i] = ws.p[i] + sqrt_d[i] * ws.ap[i];
    const double pap = linalg::kernels::dot(ws.p, ws.ap);
    if (pap <= 0.0) break;  // breakdown; M is SPD in exact arithmetic
    const double alpha = rr / pap;
    linalg::kernels::axpy(alpha, ws.p, z);
    linalg::kernels::axpy(-alpha, ws.ap, ws.r);
    const double rr_new = linalg::kernels::dot(ws.r, ws.r);
    const double beta = rr_new / rr;
    rr = rr_new;
    linalg::kernels::xpby(ws.r, beta, ws.p);
  }
  metrics::add(metrics::Counter::kReducedCgIterations, static_cast<uint64_t>(it));
  return converged;
}

/// Eisenstat-Walker choice 2 (SIAM J. Sci. Comput. 17 (1996) 16) with
/// gamma = kForcingGamma and alpha = 2, capped at kForcingMax: the forcing
/// term of Newton step k > 0 from the residual 2-norms of steps k and k - 1.
/// At this cap the choice-2 safeguard (gamma eta_{k-1}^2 > 0.1) never binds.
double forcing_term(double f_norm2, double f_norm2_prev) {
  const double ratio = f_norm2 / f_norm2_prev;
  return std::min(kForcingMax, kForcingGamma * ratio * ratio);
}

/// The response of the charge nodes of `matrix` to the fixed charge
/// `rho_fixed_e` at zero electrode voltages: the one column of the build
/// that depends on the device variant, solved by pcg_solve on a fresh
/// IC(0) factor, exactly as its lane in pcg_solve_lanes would be.
std::vector<double> fixed_charge_response(const CapacitanceMatrix& matrix,
                                          const Assembly& assembly,
                                          const std::vector<double>& rho_fixed_e) {
  if (assembly.num_free() != matrix.num_free() ||
      assembly.num_electrodes() != matrix.num_electrodes()) {
    throw std::invalid_argument("CapacitanceSolver: assembly of another geometry");
  }
  if (rho_fixed_e.size() != assembly.num_nodes()) {
    throw std::invalid_argument("CapacitanceSolver: fixed charge size mismatch");
  }
  GNRFET_REQUIRE("poisson", "finite-charge", contracts::all_finite(rho_fixed_e),
                 "fixed charge contains NaN/inf");
  linalg::IncompleteCholesky ic0;
  ic0.factor(assembly.matrix());
  linalg::PcgWorkspace ws;
  linalg::PcgOptions opts;
  opts.rel_tolerance = kBuildTolerance;
  const std::vector<double> b =
      assembly.rhs(std::vector<double>(matrix.num_electrodes(), 0.0), rho_fixed_e);
  std::vector<double> x(assembly.num_free(), 0.0);
  if (!linalg::pcg_solve(assembly.matrix(), b, x, ic0, ws, opts).converged) {
    throw std::runtime_error("CapacitanceSolver: fixed-charge response did not converge");
  }
  std::vector<double> out(matrix.size());
  for (size_t s = 0; s < out.size(); ++s) out[s] = x[assembly.free_index(matrix.nodes()[s])];
  return out;
}

}  // namespace

CapacitanceMatrix::CapacitanceMatrix(const Assembly& assembly,
                                     const std::vector<Domain::CicStencil>& stencils)
    : num_free_(assembly.num_free()),
      num_electrodes_(assembly.num_electrodes()),
      nodes_(charge_nodes(assembly, stencils)) {
  trace::Span span("poisson", "build_capacitance");
  const size_t ns = nodes_.size();
  const size_t nf = num_free_;
  green_.assign(ns * ns, 0.0);
  electrode_response_.assign(num_electrodes_ * ns, 0.0);

  // Column c < ns: unit charge on S node c; then one column per electrode
  // (unit voltage, no charge). Block k solves columns [kK, kK + K) as the
  // lanes of one PCG on one shared IC(0) factor, tracking x on S only.
  constexpr size_t K = linalg::kernels::kLanes;
  const size_t ncols = ns + num_electrodes_;
  linalg::IncompleteCholesky ic0;
  ic0.factor(assembly.matrix());
  std::vector<size_t> rows(ns);
  for (size_t s = 0; s < ns; ++s) rows[s] = assembly.free_index(nodes_[s]);
  const std::vector<double> no_charge(assembly.num_nodes(), 0.0);
  const auto column_out = [&](size_t c) {
    return c < ns ? &green_[c * ns] : &electrode_response_[(c - ns) * ns];
  };
  par::parallel_for_chunks((ncols + K - 1) / K, kBlockGrain, [&](size_t, size_t begin,
                                                                 size_t end) {
    linalg::PcgWorkspace ws;
    linalg::PcgOptions opts;
    opts.rel_tolerance = kBuildTolerance;
    std::vector<double> b(nf * K), x;
    for (size_t block = begin; block < end; ++block) {
      const size_t first = block * K;
      const size_t lanes = std::min(K, ncols - first);
      std::fill(b.begin(), b.end(), 0.0);
      for (size_t j = 0; j < lanes; ++j) {
        const size_t c = first + j;
        if (c < ns) {
          b[assembly.free_index(nodes_[c]) * K + j] = 1.0;
          continue;
        }
        std::vector<double> volts(num_electrodes_, 0.0);
        volts[c - ns] = 1.0;
        const std::vector<double> rhs = assembly.rhs(volts, no_charge);
        for (size_t i = 0; i < nf; ++i) b[i * K + j] = rhs[i];
      }
      const auto results =
          linalg::pcg_solve_lanes(assembly.matrix(), b, lanes, rows, x, ic0, ws, opts);
      for (size_t j = 0; j < lanes; ++j) {
        if (!results[j].converged) {
          throw std::runtime_error(strings::format(
              "CapacitanceMatrix: column %zu of %zu did not converge", first + j, ncols));
        }
        double* out = column_out(first + j);
        for (size_t s = 0; s < ns; ++s) out[s] = x[s * K + j];
      }
    }
  });

  // A^-1 is symmetric; the PCG columns are so only to the build tolerance.
  for (size_t i = 0; i < ns; ++i) {
    for (size_t j = i + 1; j < ns; ++j) {
      const double v = 0.5 * (green_[i * ns + j] + green_[j * ns + i]);
      green_[i * ns + j] = v;
      green_[j * ns + i] = v;
    }
  }
  green_norm1_ = 0.0;
  for (size_t i = 0; i < ns; ++i) {
    double row = 0.0;
    for (size_t j = 0; j < ns; ++j) row += std::abs(green_[i * ns + j]);
    green_norm1_ = std::max(green_norm1_, row);
  }
  metrics::add(metrics::Counter::kCapacitanceBuilds);
}

size_t CapacitanceMatrix::index_of(size_t node) const {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
  return it != nodes_.end() && *it == node ? static_cast<size_t>(it - nodes_.begin())
                                           : std::numeric_limits<size_t>::max();
}

CapacitanceSolver::CapacitanceSolver(std::shared_ptr<const CapacitanceMatrix> matrix,
                                     const Assembly& assembly,
                                     const std::vector<double>& rho_fixed_e)
    : matrix_(std::move(matrix)),
      fixed_response_(fixed_charge_response(*matrix_, assembly, rho_fixed_e)) {}

std::vector<double> CapacitanceSolver::base_potential(
    const std::vector<double>& electrode_voltages) const {
  const size_t ns = matrix_->size();
  if (electrode_voltages.size() != matrix_->num_electrodes()) {
    throw std::invalid_argument("CapacitanceSolver: electrode voltage count mismatch");
  }
  std::vector<double> phi0 = fixed_response_;
  for (size_t e = 0; e < electrode_voltages.size(); ++e) {
    const double* r = &matrix_->electrode_response()[e * ns];
    for (size_t s = 0; s < ns; ++s) phi0[s] += electrode_voltages[e] * r[s];
  }
  return phi0;
}

ReducedResult CapacitanceSolver::solve_nonlinear(const std::vector<double>& electrode_voltages,
                                                 const std::vector<double>& n0_e,
                                                 const std::vector<double>& p0_e,
                                                 const std::vector<double>& phi_ref,
                                                 const std::vector<double>& phi_init,
                                                 const NonlinearOptions& opts) const {
  trace::Span span("poisson", "solve_nonlinear_poisson");
  const size_t ns = matrix_->size();
  const std::vector<double>& green = matrix_->green();
  if (n0_e.size() != ns || p0_e.size() != ns || phi_ref.size() != ns || phi_init.size() != ns) {
    throw std::invalid_argument("CapacitanceSolver::solve_nonlinear: field size mismatch");
  }
  GNRFET_REQUIRE("poisson", "finite-charge",
                 contracts::all_finite(n0_e) && contracts::all_finite(p0_e),
                 "nodal charge populations contain NaN/inf (poisoned NEGF output?)");
  GNRFET_REQUIRE("poisson", "finite-potential",
                 contracts::all_finite(phi_ref) && contracts::all_finite(phi_init) &&
                     contracts::all_finite(electrode_voltages),
                 "reference/initial potential or electrode voltages contain NaN/inf");
  const std::vector<double> phi0 = base_potential(electrode_voltages);

  ReducedResult result;
  std::vector<double>& phi = result.phi;
  phi = phi_init;
  // sqrt_d first holds D = -dq/dphi, then its square root.
  std::vector<double> q(ns), sqrt_d(ns), f(ns), rhs(ns), z(ns), gv(ns), delta(ns);
  CgScratch cg;
  newton::StepClamp step_clamp(kMaxNewtonStep_V);
  newton::ResidualGuard guard;
  double f_norm2_prev = 0.0;
  for (int it = 0; it < opts.max_newton_iterations; ++it) {
    newton::linearised_charge(n0_e, p0_e, phi, phi_ref, constants::kRoomTemperatureKT_eV, q,
                              sqrt_d);
    linalg::kernels::dense_matvec(green.data(), ns, q.data(), gv.data());
    double f_norm = 0.0;
    for (size_t s = 0; s < ns; ++s) {
      f[s] = phi[s] - phi0[s] - gv[s];
      f_norm = std::max(f_norm, std::abs(f[s]));
    }
    guard.check(it, f_norm);
    const double f_norm2 = std::sqrt(linalg::kernels::dot(f, f));
    const double eta = it == 0 ? kForcingMax : forcing_term(f_norm2, f_norm2_prev);
    f_norm2_prev = f_norm2;
    for (size_t s = 0; s < ns; ++s) {
      sqrt_d[s] = std::sqrt(sqrt_d[s]);
      rhs[s] = -sqrt_d[s] * f[s];
    }
    if (!reduced_cg(green, matrix_->green_norm1(), sqrt_d, rhs,
                    std::max(eta * f_norm2, kLinearResidualFloor_V), z, cg)) {
      throw std::runtime_error("solve_nonlinear_poisson: reduced CG did not converge");
    }
    for (size_t s = 0; s < ns; ++s) z[s] *= sqrt_d[s];
    linalg::kernels::dense_matvec(green.data(), ns, z.data(), gv.data());
    for (size_t s = 0; s < ns; ++s) delta[s] = -f[s] - gv[s];
    const double max_update = step_clamp.apply(delta, phi);
    result.iterations = it + 1;
    result.last_update_V = max_update;
    if (max_update < kNewtonTolerance_V) {
      result.converged = true;
      break;
    }
  }
  newton::record_solve(result.iterations, result.converged);
  return result;
}

}  // namespace gnrfet::poisson
