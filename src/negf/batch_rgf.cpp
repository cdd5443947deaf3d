#include "negf/batch_rgf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/constants.hpp"
#include "common/contracts.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/strings.hpp"

namespace gnrfet::negf {

namespace {

using cplx = std::complex<double>;

constexpr size_t kW = kRgfBatchLanes;

/// Input domain inside which the branchless Smith reciprocal below provably
/// follows the same arithmetic path as libgcc's __divdc3 (no operand
/// rescaling, no subnormal-ratio recovery branch): both component
/// magnitudes well clear of overflow, the larger one well clear of the
/// subnormal range, and the magnitude ratio far from producing a subnormal
/// quotient. Everything the physical kernel feeds in — real part O(eV),
/// imaginary part >= eta > 0 — sits deep inside these bounds; lanes outside
/// them (exactly zero real part, denormals from adversarial inputs) are
/// recomputed with std::complex division, which is bit-correct by
/// definition.
constexpr double kFastMagLo = 0x1p-500;
constexpr double kFastMagHi = 0x1p+1000;
constexpr double kFastRatioScale = 0x1p+1000;

inline bool lane_in_fast_domain(double c, double d) {
  const double ac = std::fabs(c);
  const double ad = std::fabs(d);
  const double mx = ac > ad ? ac : ad;
  const double mn = ac > ad ? ad : ac;
  // mn * 2^1000 saturating to inf means mn is huge, where the ratio test
  // is trivially satisfied; NaN operands fail the first comparison.
  return mx <= kFastMagHi && mx >= kFastMagLo && mn * kFastRatioScale >= mx;
}

/// x = 1 / (c + i d) through std::complex — one __divdc3 call, the exact
/// arithmetic of the scalar kernel's `1.0 / a`.
inline void reciprocal_lane_std(double c, double d, double& xr, double& xi) {
  const cplx g = 1.0 / cplx(c, d);
  xr = g.real();
  xi = g.imag();
}

/// Branchless Smith reciprocal: the formulas __divdc3 reduces to for
/// numerator 1 + 0i when no scaling branch fires. Selects compile to
/// vector blends, so the 8-lane loop below auto-vectorizes.
inline void reciprocal_lane_fast(double c, double d, double& xr, double& xi) {
  const double ac = std::fabs(c);
  const double ad = std::fabs(d);
  const bool swap_cd = ac < ad;
  const double num = swap_cd ? c : d;
  const double den0 = swap_cd ? d : c;
  const double r = num / den0;
  const double den = swap_cd ? (c * r + d) : (c + d * r);
  const double xnum = swap_cd ? r : 1.0;
  const double ynum = swap_cd ? 1.0 : r;
  xr = xnum / den;
  xi = -(ynum / den);
}

/// One-time self-check: the fast reciprocal must match 1.0/std::complex
/// bit-for-bit over a deterministic probe grid spanning the guarded fast
/// domain — both Smith branches, both signs, magnitudes from 2^-499 to
/// near 2^1000, and non-trivial mantissas. A single mismatch (a future
/// toolchain changing its __divdc3 lowering) disables the fast path for
/// the whole process; the kernel then uses per-lane std::complex division
/// and stays bit-correct, just slower.
bool fast_reciprocal_matches_std() {
  static constexpr double kMags[] = {0x1p-499, 1e-130, 1e-30,  1e-9,  1e-6,
                                     1e-3,     0.025,  0.125,  1.0,   2.718281828459045,
                                     3.0,      97.0,   1e6,    1e30,  1e130,
                                     0x1.3p+999};
  static constexpr double kScales[] = {1.0, 1.2345678901234567, 0.9182736455463728};
  for (const double m1 : kMags) {
    for (int s1 = -1; s1 <= 1; s1 += 2) {
      for (const double m2 : kMags) {
        for (int s2 = -1; s2 <= 1; s2 += 2) {
          for (const double sc : kScales) {
            const double c = s1 * m1 * sc;
            const double d = s2 * m2 * (2.0 - sc);
            if (!lane_in_fast_domain(c, d)) continue;
            double xr = 0.0, xi = 0.0;
            reciprocal_lane_fast(c, d, xr, xi);
            const cplx ref = 1.0 / cplx(c, d);
            if (std::bit_cast<uint64_t>(xr) != std::bit_cast<uint64_t>(ref.real()) ||
                std::bit_cast<uint64_t>(xi) != std::bit_cast<uint64_t>(ref.imag())) {
              return false;
            }
          }
        }
      }
    }
  }
  return true;
}

bool fast_reciprocal_ok() {
  static const bool ok = fast_reciprocal_matches_std();
  return ok;
}

/// 8-lane reciprocal: x[l] = 1 / (c[l] + i d[l]). The fast pass is
/// branch-free and vectorizes; a second pass recomputes any lane whose
/// input left the verified fast domain (never taken for physical inputs).
inline void reciprocal_lanes(bool fast, const double* cr, const double* ci, double* xr,
                             double* xi) {
  if (fast) {
    for (size_t l = 0; l < kW; ++l) reciprocal_lane_fast(cr[l], ci[l], xr[l], xi[l]);
    for (size_t l = 0; l < kW; ++l) {
      if (!lane_in_fast_domain(cr[l], ci[l])) reciprocal_lane_std(cr[l], ci[l], xr[l], xi[l]);
    }
  } else {
    for (size_t l = 0; l < kW; ++l) reciprocal_lane_std(cr[l], ci[l], xr[l], xi[l]);
  }
}

/// Solve one padded group of kW lanes; lanes [0, w) are live and scatter
/// into `out` at [lane0, lane0 + w) with spectral stride `stride`. Every
/// statement mirrors one statement of scalar_rgf_solve with std::complex
/// operations expanded to the component arithmetic the compiler emits for
/// them, in the same order — see that kernel for the physics commentary.
void solve_group(const ScalarChain& chain, const double* e, size_t w, size_t lane0,
                 size_t stride, double eta_eV, bool fast, ScalarRgfBatchWorkspace& ws,
                 ScalarRgfBatchResult& out) {
  const size_t n = chain.onsite.size();
  const double sig_l_im = -0.5 * chain.gamma_left;
  const double sig_r_im = -0.5 * chain.gamma_right;
  const size_t last = (n - 1) * kW;

  double* glr = ws.gl_re.data();
  double* gli = ws.gl_im.data();
  double ar[kW];
  double ai[kW];

  // Forward: left-connected g. gl[0] = 1 / (e - onsite[0] - sig_l); the
  // self-energies are purely imaginary, so only the imaginary base moves.
  {
    const double base_im = eta_eV - sig_l_im;
    for (size_t l = 0; l < kW; ++l) ar[l] = e[l] - chain.onsite[0];
    for (size_t l = 0; l < kW; ++l) ai[l] = base_im;
    reciprocal_lanes(fast, ar, ai, glr, gli);
  }
  for (size_t c = 1; c < n; ++c) {
    const double base_im = c == n - 1 ? eta_eV - sig_r_im : eta_eV;
    const double v = chain.hopping[c - 1];
    const double vv = v * v;
    const double* pr = glr + (c - 1) * kW;
    const double* pi = gli + (c - 1) * kW;
    for (size_t l = 0; l < kW; ++l) ar[l] = (e[l] - chain.onsite[c]) - vv * pr[l];
    for (size_t l = 0; l < kW; ++l) ai[l] = base_im - vv * pi[l];
    reciprocal_lanes(fast, ar, ai, glr + c * kW, gli + c * kW);
  }

  // Backward: full diagonal plus last-column elements.
  double* gdr = ws.gd_re.data();
  double* gdi = ws.gd_im.data();
  double* gcr = ws.gcol_re.data();
  double* gci = ws.gcol_im.data();
  for (size_t l = 0; l < kW; ++l) {
    gdr[last + l] = glr[last + l];
    gdi[last + l] = gli[last + l];
    gcr[last + l] = glr[last + l];
    gci[last + l] = gli[last + l];
  }
  double t1r[kW];
  double t1i[kW];
  for (size_t c = n - 1; c-- > 0;) {
    const double v = chain.hopping[c];
    const double* lr = glr + c * kW;
    const double* li = gli + c * kW;
    const double* dr = gdr + (c + 1) * kW;
    const double* di = gdi + (c + 1) * kW;
    const double* qr = gcr + (c + 1) * kW;
    const double* qi = gci + (c + 1) * kW;
    for (size_t l = 0; l < kW; ++l) {
      // gd[c] = gl[c] + gl[c]*v * gd[c+1] * v * gl[c], left-associated:
      // t1 = gl[c]*v (componentwise), t2 = t1 * gd[c+1], then (t2*v) * gl[c].
      t1r[l] = lr[l] * v;
      t1i[l] = li[l] * v;
      const double t2r = t1r[l] * dr[l] - t1i[l] * di[l];
      const double t2i = t1r[l] * di[l] + t1i[l] * dr[l];
      const double sr = t2r * v;
      const double si = t2i * v;
      gdr[c * kW + l] = lr[l] + (sr * lr[l] - si * li[l]);
      gdi[c * kW + l] = li[l] + (sr * li[l] + si * lr[l]);
    }
    for (size_t l = 0; l < kW; ++l) {
      // gcol[c] = (gl[c]*v) * gcol[c+1]; the scalar kernel recomputes
      // gl[c]*v here with identical bits, so t1 is shared.
      gcr[c * kW + l] = t1r[l] * qr[l] - t1i[l] * qi[l];
      gci[c * kW + l] = t1r[l] * qi[l] + t1i[l] * qr[l];
    }
  }

  const double gg = chain.gamma_left * chain.gamma_right;
  for (size_t l = 0; l < w; ++l) {
    const double t = gg * (gcr[l] * gcr[l] + gci[l] * gci[l]);
    out.transmission[lane0 + l] = t;
    GNRFET_ENSURE("negf", "transmission-positive",
                  std::isfinite(t) && t >= -1e-9 && t <= 1.0 + 1e-6,
                  strings::format("scalar T(E=%g) = %g outside [0, 1]", e[l], t));
  }
  for (size_t c = 0; c < n; ++c) {
    const double* pr = gcr + c * kW;
    const double* pi = gci + c * kW;
    const double* di = gdi + c * kW;
    double* sl = out.spectral_left.data() + c * stride + lane0;
    double* sr = out.spectral_right.data() + c * stride + lane0;
    for (size_t l = 0; l < w; ++l) {
      const double a_tot = -2.0 * di[l];
      const double a_r = chain.gamma_right * (pr[l] * pr[l] + pi[l] * pi[l]);
      GNRFET_ENSURE("negf", "spectral-sum-rule",
                    std::isfinite(a_tot) &&
                        a_tot - a_r >= -1e-9 * (1.0 + std::abs(a_tot) + a_r),
                    strings::format("site %zu: A_tot = %g, A_R = %g at E = %g", c, a_tot, a_r,
                                    e[l]));
      sr[l] = a_r;
      sl[l] = std::max(0.0, a_tot - a_r);
    }
  }

  // Independent drain-side solve, batched the same way: right-connected
  // sweep, then the mirrored column G_{n-1,0} lane by lane.
  {
    double* grr = ws.gr_re.data();
    double* gri = ws.gr_im.data();
    {
      const double base_im = eta_eV - sig_r_im;
      for (size_t l = 0; l < kW; ++l) ar[l] = e[l] - chain.onsite[n - 1];
      for (size_t l = 0; l < kW; ++l) ai[l] = base_im;
      reciprocal_lanes(fast, ar, ai, grr + last, gri + last);
    }
    for (size_t c = n - 1; c-- > 0;) {
      const double base_im = c == 0 ? eta_eV - sig_l_im : eta_eV;
      const double v = chain.hopping[c];
      const double vv = v * v;
      const double* pr = grr + (c + 1) * kW;
      const double* pi = gri + (c + 1) * kW;
      for (size_t l = 0; l < kW; ++l) ar[l] = (e[l] - chain.onsite[c]) - vv * pr[l];
      for (size_t l = 0; l < kW; ++l) ai[l] = base_im - vv * pi[l];
      reciprocal_lanes(fast, ar, ai, grr + c * kW, gri + c * kW);
    }
    double growr[kW];
    double growi[kW];
    for (size_t l = 0; l < kW; ++l) {
      growr[l] = grr[l];
      growi[l] = gri[l];
    }
    for (size_t c = 1; c < n; ++c) {
      const double hh = chain.hopping[c - 1];
      const double* pr = grr + c * kW;
      const double* pi = gri + c * kW;
      for (size_t l = 0; l < kW; ++l) {
        // grow = (gr[c] * hopping[c-1]) * grow
        const double tr = pr[l] * hh;
        const double ti = pi[l] * hh;
        const double nr = tr * growr[l] - ti * growi[l];
        const double ni = tr * growi[l] + ti * growr[l];
        growr[l] = nr;
        growi[l] = ni;
      }
    }
    for (size_t l = 0; l < w; ++l) {
      const double trev = gg * (growr[l] * growr[l] + growi[l] * growi[l]);
      out.transmission_reverse[lane0 + l] = trev;
      const double t = out.transmission[lane0 + l];
      const double mismatch = std::abs(t - trev);
      GNRFET_ENSURE("negf", "reciprocal-transmission",
                    mismatch <= 1e-6 * (t + trev + 1e-9),
                    strings::format("T_forward = %.12g vs T_reverse = %.12g at E = %g", t, trev,
                                    e[l]));
    }
  }
}

}  // namespace

bool rgf_batch_enabled() {
  const std::string s = common::env_or("GNRFET_RGF_BATCH", "on");
  if (s == "on") return true;
  if (s == "off") return false;
  throw std::invalid_argument("GNRFET_RGF_BATCH must be 'on' or 'off', got '" + s + "'");
}

bool rgf_batch_uses_fast_reciprocal() { return fast_reciprocal_ok(); }

void scalar_rgf_solve_batch(const ScalarChain& chain, const double* energies_eV, size_t count,
                            double eta_eV, ScalarRgfBatchWorkspace& ws,
                            ScalarRgfBatchResult& out) {
  const size_t n = chain.onsite.size();
  if (n < 2) throw std::invalid_argument("scalar_rgf: need >= 2 sites");
  if (chain.hopping.size() != n - 1) {
    throw std::invalid_argument("scalar_rgf: hopping size mismatch");
  }
  if (count == 0) throw std::invalid_argument("scalar_rgf_batch: need >= 1 energy");
  GNRFET_REQUIRE("negf", "finite-chain",
                 contracts::all_finite(chain.onsite) && contracts::all_finite(chain.hopping) &&
                     std::isfinite(chain.gamma_left) && std::isfinite(chain.gamma_right),
                 "scalar chain contains NaN/inf onsite or hopping energies");
  GNRFET_REQUIRE("negf", "positive-broadening", eta_eV > 0.0 && std::isfinite(eta_eV),
                 strings::format("eta_eV = %g must be finite and > 0", eta_eV));

  ws.gl_re.resize(n * kW);
  ws.gl_im.resize(n * kW);
  ws.gd_re.resize(n * kW);
  ws.gd_im.resize(n * kW);
  ws.gcol_re.resize(n * kW);
  ws.gcol_im.resize(n * kW);
  ws.gr_re.resize(n * kW);
  ws.gr_im.resize(n * kW);
  out.transmission.assign(count, 0.0);
  out.transmission_reverse.assign(count, 0.0);
  out.spectral_left.resize(n * count);
  out.spectral_right.resize(n * count);

  metrics::add(metrics::Counter::kRgfBatchSolves);
  metrics::observe(metrics::Histogram::kRgfBatchWidth, static_cast<double>(count));

  const bool fast = fast_reciprocal_ok();
  double e_pad[kW];
  for (size_t lane0 = 0; lane0 < count; lane0 += kW) {
    const size_t w = std::min(kW, count - lane0);
    for (size_t l = 0; l < w; ++l) e_pad[l] = energies_eV[lane0 + l];
    for (size_t l = w; l < kW; ++l) e_pad[l] = e_pad[0];
    solve_group(chain, e_pad, w, lane0, count, eta_eV, fast, ws, out);
  }
}

void fermi_factors(const double* energies_eV, size_t count, double mu_eV, double kT_eV,
                   double* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = constants::fermi(energies_eV[k] - mu_eV, kT_eV);
  }
}

}  // namespace gnrfet::negf
