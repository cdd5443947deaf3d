#include "negf/rgf.hpp"

#include <stdexcept>

#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "linalg/lu.hpp"
#include "negf/selfenergy.hpp"

namespace gnrfet::negf {

using linalg::CMatrix;
using linalg::cplx;

namespace {

/// (E + i eta) I - Hd into caller storage (same arithmetic as the former
/// value-returning helper: negate every entry, then add e on the diagonal).
void block_a_into(CMatrix& a, const CMatrix& hd, cplx e) {
  a.resize_zero(hd.rows(), hd.cols());
  for (size_t i = 0; i < hd.rows(); ++i) {
    for (size_t j = 0; j < hd.cols(); ++j) a(i, j) = -hd(i, j);
    a(i, i) += e;
  }
}

/// Identity right-hand side into caller storage.
void identity_into(CMatrix& eye, size_t n) {
  eye.resize_zero(n, n);
  for (size_t i = 0; i < n; ++i) eye(i, i) = cplx{1.0};
}

/// Gamma = i (Sigma - Sigma^dagger) into caller storage, the same
/// entry-wise arithmetic as selfenergy.cpp's broadening().
void broadening_into(CMatrix& gamma, CMatrix& adj_scratch, const CMatrix& sigma) {
  linalg::adjoint_into(adj_scratch, sigma);
  gamma.resize_zero(sigma.rows(), sigma.cols());
  for (size_t i = 0; i < gamma.rows(); ++i) {
    for (size_t j = 0; j < gamma.cols(); ++j) {
      gamma(i, j) = cplx(0.0, 1.0) * (sigma(i, j) - adj_scratch(i, j));
    }
  }
}

/// Tolerance for |H - H^dagger| (eV); hopping energies are O(1) eV and the
/// Hamiltonian is assembled, not accumulated, so exact symmetry is expected.
constexpr double kHermitianTol_eV = 1e-9;

void check_contact_shapes(const gnr::BlockTridiagonal& h, const CMatrix& sl, const CMatrix& sr) {
  if (h.num_blocks() < 2) throw std::invalid_argument("rgf: need >= 2 blocks");
  if (sl.rows() != h.diag.front().rows() || sl.cols() != h.diag.front().cols()) {
    throw std::invalid_argument("rgf: sigma_left shape mismatch");
  }
  if (sr.rows() != h.diag.back().rows() || sr.cols() != h.diag.back().cols()) {
    throw std::invalid_argument("rgf: sigma_right shape mismatch");
  }
}

}  // namespace

RgfResult rgf_solve(const gnr::BlockTridiagonal& h, double energy_eV, double eta_eV,
                    const CMatrix& sigma_left, const CMatrix& sigma_right) {
  RgfWorkspace ws;
  RgfResult out;
  rgf_solve(h, energy_eV, eta_eV, sigma_left, sigma_right, ws, out);
  return out;
}

void rgf_solve(const gnr::BlockTridiagonal& h, double energy_eV, double eta_eV,
               const CMatrix& sigma_left, const CMatrix& sigma_right, RgfWorkspace& ws,
               RgfResult& out) {
  check_contact_shapes(h, sigma_left, sigma_right);
  GNRFET_REQUIRE("negf", "positive-broadening", eta_eV > 0.0 && std::isfinite(eta_eV),
                 strings::format("eta_eV = %g must be finite and > 0", eta_eV));
  GNRFET_CHECK_FINITE("negf", "finite-energy", energy_eV);
#if GNRFET_CHECKS_ENABLED
  {
    const double herm = gnr::hermiticity_error(h);
    GNRFET_REQUIRE("negf", "hermitian-hamiltonian", herm <= kHermitianTol_eV,
                   strings::format("max |H - H^dagger| = %g eV exceeds %g", herm,
                                   kHermitianTol_eV));
  }
#endif
  const size_t nb = h.num_blocks();
  const cplx e(energy_eV, eta_eV);

  // Forward sweep: left-connected Green's functions gL_i. Every block
  // solve refactors into the workspace LU and writes into long-lived
  // buffers: no allocation once the block shapes have been seen.
  std::vector<CMatrix>& gl = ws.gl;
  gl.resize(nb);
  {
    block_a_into(ws.a, h.diag[0], e);
    ws.a -= sigma_left;
    identity_into(ws.eye, ws.a.rows());
    ws.lu.factor(ws.a);
    ws.lu.solve_into(ws.eye, gl[0]);
  }
  for (size_t i = 1; i < nb; ++i) {
    block_a_into(ws.a, h.diag[i], e);
    if (i == nb - 1) ws.a -= sigma_right;
    // a -= V_{i,i-1} gL_{i-1} V_{i-1,i}, with V_{i-1,i} = upper[i-1].
    const CMatrix& v_up = h.upper[i - 1];
    linalg::adjoint_into(ws.v_dn, v_up);
    linalg::multiply_into(ws.t1, gl[i - 1], v_up);
    linalg::multiply_into(ws.t2, ws.v_dn, ws.t1);
    ws.a -= ws.t2;
    identity_into(ws.eye, ws.a.rows());
    ws.lu.factor(ws.a);
    ws.lu.solve_into(ws.eye, gl[i]);
  }

  // Backward sweep for the diagonal blocks of the full G, plus the last
  // column blocks via G_{i,last} = -gL_i A_{i,i+1} G_{i+1,last}
  // (valid for row index below the column index with left-connected g;
  // A_{i,i+1} = -H_{i,i+1} so the signs fold into a plus).
  std::vector<CMatrix>& gdiag = ws.gdiag;
  std::vector<CMatrix>& gcol = ws.gcol;
  gdiag.resize(nb);
  gcol.resize(nb);
  gdiag[nb - 1] = gl[nb - 1];
  gcol[nb - 1] = gl[nb - 1];
  for (size_t ii = nb - 1; ii-- > 0;) {
    const CMatrix& v_up = h.upper[ii];  // H_{ii, ii+1}
    linalg::adjoint_into(ws.v_dn, v_up);
    linalg::multiply_into(ws.t1, ws.v_dn, gl[ii]);
    linalg::multiply_into(ws.t2, gdiag[ii + 1], ws.t1);
    linalg::multiply_into(ws.t1, v_up, ws.t2);
    linalg::multiply_into(ws.t2, gl[ii], ws.t1);
    gdiag[ii] = gl[ii];
    gdiag[ii] += ws.t2;
    linalg::multiply_into(ws.t1, v_up, gcol[ii + 1]);
    linalg::multiply_into(gcol[ii], gl[ii], ws.t1);
  }

  broadening_into(ws.gamma_l, ws.t1, sigma_left);
  broadening_into(ws.gamma_r, ws.t1, sigma_right);

  // Transmission: Tr[Gamma_L G_{0,last} Gamma_R G_{0,last}^dagger].
  {
    const CMatrix& g_0n = gcol[0];
    linalg::adjoint_into(ws.t1, g_0n);
    linalg::multiply_into(ws.t2, ws.gamma_r, ws.t1);
    linalg::multiply_into(ws.t1, g_0n, ws.t2);
    linalg::multiply_into(ws.t2, ws.gamma_l, ws.t1);
    out.transmission = ws.t2.trace().real();
  }
  // Transmission is Tr of a positive-semidefinite product: finite and
  // nonnegative up to roundoff, bounded by the contact channel count.
  GNRFET_ENSURE("negf", "transmission-positive",
                std::isfinite(out.transmission) && out.transmission >= -1e-9,
                strings::format("T(E=%g) = %g", energy_eV, out.transmission));
  // Contact spectral functions: A_R,ii from the last-column blocks,
  // A_L,ii = A_ii - A_R,ii with A = i (G - G^dagger).
  out.spectral_left.clear();
  out.spectral_right.clear();
  out.spectral_left.reserve(h.total_dim());
  out.spectral_right.reserve(h.total_dim());
  for (size_t i = 0; i < nb; ++i) {
    linalg::adjoint_into(ws.t1, gcol[i]);
    linalg::multiply_into(ws.t2, ws.gamma_r, ws.t1);
    linalg::multiply_into(ws.t1, gcol[i], ws.t2);
    const CMatrix& ar = ws.t1;
    const size_t n = gdiag[i].rows();
    for (size_t k = 0; k < n; ++k) {
      const double a_tot = -2.0 * gdiag[i](k, k).imag();
      const double a_r = ar(k, k).real();
      // Spectral sum rule A = G (Gamma_L + Gamma_R + 2 eta) G^dagger on the
      // diagonal: A_ii >= (A_R)_ii >= 0 up to roundoff. A violation means
      // the drain-injected density exceeds the total density of states —
      // exactly the failure mode of a corrupted H or self-energy.
      GNRFET_ENSURE("negf", "spectral-sum-rule",
                    std::isfinite(a_tot) && a_r >= -1e-9 &&
                        a_tot - a_r >= -1e-9 * (1.0 + std::abs(a_tot) + std::abs(a_r)),
                    strings::format("block %zu orbital %zu: A_tot = %g, A_R = %g at E = %g",
                                    i, k, a_tot, a_r, energy_eV));
      out.spectral_right.push_back(a_r);
      out.spectral_left.push_back(std::max(0.0, a_tot - a_r));
    }
  }
}

RgfResult dense_reference_solve(const gnr::BlockTridiagonal& h, double energy_eV, double eta_eV,
                                const CMatrix& sigma_left, const CMatrix& sigma_right) {
  check_contact_shapes(h, sigma_left, sigma_right);
  const size_t n = h.total_dim();
  CMatrix a(n, n);
  const CMatrix hd = h.to_dense();
  const cplx e(energy_eV, eta_eV);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a(i, j) = -hd(i, j);
    a(i, i) += e;
  }
  const size_t n0 = h.diag.front().rows();
  const size_t nl = h.diag.back().rows();
  for (size_t i = 0; i < n0; ++i) {
    for (size_t j = 0; j < n0; ++j) a(i, j) -= sigma_left(i, j);
  }
  for (size_t i = 0; i < nl; ++i) {
    for (size_t j = 0; j < nl; ++j) a(n - nl + i, n - nl + j) -= sigma_right(i, j);
  }
  const CMatrix g = linalg::LU(a).solve(CMatrix::identity(n));

  // Embed the contact broadenings in full-dimension frames.
  CMatrix gamma_l(n, n), gamma_r(n, n);
  const CMatrix gl_small = broadening(sigma_left);
  const CMatrix gr_small = broadening(sigma_right);
  for (size_t i = 0; i < n0; ++i) {
    for (size_t j = 0; j < n0; ++j) gamma_l(i, j) = gl_small(i, j);
  }
  for (size_t i = 0; i < nl; ++i) {
    for (size_t j = 0; j < nl; ++j) gamma_r(n - nl + i, n - nl + j) = gr_small(i, j);
  }
  const CMatrix ar = g * (gamma_r * g.adjoint());
  const CMatrix t = gamma_r * (g * (gamma_l * g.adjoint()));

  RgfResult r;
  r.transmission = t.trace().real();
#if GNRFET_CHECKS_ENABLED
  // Full spectral identity A = G (Gamma_L + Gamma_R) G^dagger + 2 eta G
  // G^dagger, checked entry-wise on the diagonal. Only affordable here (one
  // dense solve per energy already); the RGF path checks the diagonal sum
  // rule instead.
  {
    const CMatrix al = g * (gamma_l * g.adjoint());
    const CMatrix gg = g * g.adjoint();
    for (size_t k = 0; k < n; ++k) {
      const double a_tot = -2.0 * g(k, k).imag();
      const double rhs = al(k, k).real() + ar(k, k).real() + 2.0 * eta_eV * gg(k, k).real();
      const double scale = std::abs(a_tot) + std::abs(rhs) + 1.0;
      GNRFET_ENSURE("negf", "spectral-identity", std::abs(a_tot - rhs) <= 1e-8 * scale,
                    strings::format("orbital %zu: i(G - G^dagger) = %g vs G Gamma G^dagger = %g",
                                    k, a_tot, rhs));
    }
  }
#endif
  r.spectral_left.resize(n);
  r.spectral_right.resize(n);
  // Same convention as rgf_solve: A_R exact from Gamma_R, A_L as the
  // remainder of the total spectral function (which also absorbs the small
  // eta-broadening background).
  for (size_t k = 0; k < n; ++k) {
    const double a_tot = -2.0 * g(k, k).imag();
    r.spectral_right[k] = ar(k, k).real();
    r.spectral_left[k] = std::max(0.0, a_tot - ar(k, k).real());
  }
  return r;
}

}  // namespace gnrfet::negf
