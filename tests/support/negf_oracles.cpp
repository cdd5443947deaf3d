#include "support/negf_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "test_support.hpp"

namespace gnrfet::negf {

using linalg::CMatrix;
using linalg::cplx;

CMatrix to_dense(const gnr::BlockTridiagonal& h) {
  const size_t n = h.total_dim();
  CMatrix dense(n, n);
  size_t off = 0;
  for (size_t b = 0; b < h.diag.size(); ++b) {
    const auto& d = h.diag[b];
    for (size_t i = 0; i < d.rows(); ++i) {
      for (size_t j = 0; j < d.cols(); ++j) dense(off + i, off + j) = d(i, j);
    }
    if (b + 1 < h.diag.size()) {
      const auto& u = h.upper[b];
      const size_t off2 = off + d.rows();
      for (size_t i = 0; i < u.rows(); ++i) {
        for (size_t j = 0; j < u.cols(); ++j) {
          dense(off + i, off2 + j) = u(i, j);
          dense(off2 + j, off + i) = std::conj(u(i, j));
        }
      }
    }
    off += d.rows();
  }
  return dense;
}

double max_abs(const CMatrix& m) {
  double out = 0.0;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) out = std::max(out, std::abs(m(i, j)));
  }
  return out;
}

ScalarRgfResult scalar_rgf_solve(const ScalarChain& chain, double energy_eV, double eta_eV) {
  ScalarRgfWorkspace ws;
  ScalarRgfResult out;
  scalar_rgf_solve(chain, energy_eV, eta_eV, ws, out);
  return out;
}

void scalar_rgf_solve(const ScalarChain& chain, double energy_eV, double eta_eV,
                      ScalarRgfWorkspace& ws, ScalarRgfResult& out) {
  const size_t n = chain.onsite.size();
  if (n < 2) throw std::invalid_argument("scalar_rgf: need >= 2 sites");
  if (chain.hopping.size() != n - 1) {
    throw std::invalid_argument("scalar_rgf: hopping size mismatch");
  }
  GNRFET_REQUIRE("negf", "finite-chain",
                 contracts::all_finite(chain.onsite) && contracts::all_finite(chain.hopping) &&
                     std::isfinite(chain.gamma_left) && std::isfinite(chain.gamma_right),
                 "scalar chain contains NaN/inf onsite or hopping energies");
  GNRFET_REQUIRE("negf", "positive-broadening", eta_eV > 0.0 && std::isfinite(eta_eV),
                 strings::format("eta_eV = %g must be finite and > 0", eta_eV));
  const cplx e(energy_eV, eta_eV);
  const cplx sig_l(0.0, -0.5 * chain.gamma_left);
  const cplx sig_r(0.0, -0.5 * chain.gamma_right);

  // Forward: left-connected g.
  std::vector<cplx>& gl = ws.gl;
  gl.resize(n);
  gl[0] = 1.0 / (e - chain.onsite[0] - sig_l);
  for (size_t c = 1; c < n; ++c) {
    cplx a = e - chain.onsite[c];
    if (c == n - 1) a -= sig_r;
    const double v = chain.hopping[c - 1];
    a -= v * v * gl[c - 1];
    gl[c] = 1.0 / a;
  }

  // Backward: full diagonal plus the last-column elements
  // G_{c,last} = -gL_c A_{c,c+1} G_{c+1,last} with A = -H.
  std::vector<cplx>& gd = ws.gd;
  std::vector<cplx>& gcol = ws.gcol;
  gd.resize(n);
  gcol.resize(n);
  gd[n - 1] = gl[n - 1];
  gcol[n - 1] = gl[n - 1];
  for (size_t c = n - 1; c-- > 0;) {
    const double v = chain.hopping[c];
    gd[c] = gl[c] + gl[c] * v * gd[c + 1] * v * gl[c];
    gcol[c] = gl[c] * v * gcol[c + 1];
  }

  out.transmission = chain.gamma_left * chain.gamma_right * std::norm(gcol[0]);
  // One transverse subband carries at most one conductance quantum:
  // 0 <= T(E) <= 1 for any chain with these wide-band contacts.
  GNRFET_ENSURE("negf", "transmission-positive",
                std::isfinite(out.transmission) && out.transmission >= -1e-9 &&
                    out.transmission <= 1.0 + 1e-6,
                strings::format("scalar T(E=%g) = %g outside [0, 1]", energy_eV,
                                out.transmission));
  out.spectral_total.resize(n);
  out.spectral_left.resize(n);
  out.spectral_right.resize(n);
  for (size_t c = 0; c < n; ++c) {
    const double a_tot = -2.0 * gd[c].imag();
    const double a_r = chain.gamma_right * std::norm(gcol[c]);
    // Diagonal spectral sum rule: A_cc >= (A_R)_cc >= 0 up to roundoff.
    GNRFET_ENSURE("negf", "spectral-sum-rule",
                  std::isfinite(a_tot) &&
                      a_tot - a_r >= -1e-9 * (1.0 + std::abs(a_tot) + a_r),
                  strings::format("site %zu: A_tot = %g, A_R = %g at E = %g", c, a_tot, a_r,
                                  energy_eV));
    out.spectral_total[c] = a_tot;
    out.spectral_right[c] = a_r;
    out.spectral_left[c] = std::max(0.0, a_tot - a_r);
  }
  // Independent drain-side solve: right-connected sweep, then the mirrored
  // column G_{n-1,0}. In exact arithmetic G_{0,n-1} = G_{n-1,0} (the chain
  // Hamiltonian is complex-symmetric), so the two transmissions agree; the
  // mismatch is the per-energy source/drain current-continuity contract.
  {
    std::vector<cplx>& gr = ws.gr;
    gr.resize(n);
    gr[n - 1] = 1.0 / (e - chain.onsite[n - 1] - sig_r);
    for (size_t c = n - 1; c-- > 0;) {
      cplx a = e - chain.onsite[c];
      if (c == 0) a -= sig_l;
      const double v = chain.hopping[c];
      a -= v * v * gr[c + 1];
      gr[c] = 1.0 / a;
    }
    cplx grow = gr[0];  // G_{0,0} of the right-connected chain... accumulate G_{c,0}
    for (size_t c = 1; c < n; ++c) grow = gr[c] * chain.hopping[c - 1] * grow;
    out.transmission_reverse = chain.gamma_left * chain.gamma_right * std::norm(grow);
    const double mismatch = std::abs(out.transmission - out.transmission_reverse);
    GNRFET_ENSURE("negf", "reciprocal-transmission",
                  mismatch <= 1e-6 * (out.transmission + out.transmission_reverse + 1e-9),
                  strings::format("T_forward = %.12g vs T_reverse = %.12g at E = %g",
                                  out.transmission, out.transmission_reverse, energy_eV));
  }
}

RgfResult dense_reference_solve(const gnr::BlockTridiagonal& h, double energy_eV, double eta_eV,
                                const CMatrix& sigma_left, const CMatrix& sigma_right) {
  if (h.num_blocks() < 2 || sigma_left.rows() != h.diag.front().rows() ||
      sigma_left.cols() != h.diag.front().cols() || sigma_right.rows() != h.diag.back().rows() ||
      sigma_right.cols() != h.diag.back().cols()) {
    throw std::invalid_argument("dense_reference_solve: block or contact shape mismatch");
  }
  const size_t n = h.total_dim();
  CMatrix a(n, n);
  const CMatrix hd = to_dense(h);
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
  const CMatrix g = tests::lu_solve(tests::lu_factor(a), CMatrix::identity(n));

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
  r.spectral_total.resize(n);
  r.spectral_right.resize(n);
  for (size_t k = 0; k < n; ++k) {
    r.spectral_total[k] = -2.0 * g(k, k).imag();
    r.spectral_right[k] = ar(k, k).real();
  }
  return r;
}

CMatrix sancho_rubio_surface_gf(cplx energy, const CMatrix& h00, const CMatrix& h01,
                                double tol, int max_iter) {
  const size_t n = h00.rows();
  if (h00.cols() != n || h01.rows() != n || h01.cols() != n) {
    throw std::invalid_argument("sancho_rubio: blocks must be square and same size");
  }
  // The decimation stagnates at band centers for vanishing broadening;
  // enforce a floor on Im(E) (well below any physical energy scale here).
  if (energy.imag() < 1e-6) energy = cplx(energy.real(), 1e-6);
  CMatrix eye = CMatrix::identity(n);
  // eps_s: surface block; eps: bulk block; alpha/beta: renormalized couplings.
  CMatrix eps_s = h00;
  CMatrix eps = h00;
  CMatrix alpha = h01;
  CMatrix beta = h01.adjoint();
  for (int it = 0; it < max_iter; ++it) {
    const CMatrix g = tests::lu_solve(tests::lu_factor(eye * energy - eps), eye);
    const CMatrix ga = g * alpha;
    const CMatrix gb = g * beta;
    const CMatrix a_gb = alpha * gb;
    const CMatrix b_ga = beta * ga;
    eps_s += alpha * gb;
    eps += a_gb + b_ga;
    alpha = alpha * ga;
    beta = beta * gb;
    if (max_abs(alpha) < tol && max_abs(beta) < tol) break;
  }
  return tests::lu_solve(tests::lu_factor(eye * energy - eps_s), eye);
}

CMatrix broadening(const CMatrix& sigma) {
  CMatrix g = sigma;
  const CMatrix sd = sigma.adjoint();
  for (size_t i = 0; i < g.rows(); ++i) {
    for (size_t j = 0; j < g.cols(); ++j) {
      g(i, j) = cplx(0.0, 1.0) * (sigma(i, j) - sd(i, j));
    }
  }
  return g;
}

}  // namespace gnrfet::negf
