#include "negf/scalar_rgf.hpp"

#include <stdexcept>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace gnrfet::negf {

using cplx = std::complex<double>;

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

}  // namespace gnrfet::negf
