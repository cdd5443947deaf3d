#pragma once

#include <cstddef>
#include <vector>

/// Scalar recursive Green's function for 1D chains, batched over energies:
/// the kernel of the uncoupled mode-space solver. Each transverse subband
/// of the A-GNR is an SSH-like chain (alternating real hoppings) with one
/// orbital per atomic column, so all RGF blocks are 1x1.
///
/// SIMD batching: solve one ScalarChain at B energies in a single kernel
/// call. All sweep state is laid out structure-of-arrays over an energy
/// "lane" dimension — `gl/gd/gcol` become [site][lane] planes of
/// split real/imaginary arrays — so the site recurrence, which is
/// sequential over sites but embarrassingly independent across energies,
/// auto-vectorizes across lanes.
///
/// Determinism contract: every lane performs arithmetic identical to the
/// forward and backward sweeps of the one-energy scalar_rgf_solve oracle
/// (tests/support/negf_oracles.hpp) at that energy — the same operations
/// in the same order, with complex multiplies expanded to the naive
/// (ac - bd, ad + bc) form the compiler emits for finite std::complex
/// products, and complex reciprocals through a branchless Smith kernel
/// that reproduces libgcc's __divdc3 bit-for-bit for in-range operands
/// (verified once per process against std::complex division over a probe
/// grid spanning both Smith branches and extreme magnitudes; on any
/// mismatch the kernel drops to per-lane std::complex division, which is
/// bit-identical by construction).
/// Results are therefore bit-equal to the per-energy scalar path for any
/// batch width, including ragged remainders — locked by tests.
namespace gnrfet::negf {

struct ScalarChain {
  /// Onsite energies per site (eV); size L.
  std::vector<double> onsite;
  /// Hoppings between site c and c+1 (eV); size L-1.
  std::vector<double> hopping;
  /// Contact broadenings (eV) on the first and last site (wide-band).
  double gamma_left = 0.0;
  double gamma_right = 0.0;
};

/// SoA lane width of one kernel group. Batches wider than this are
/// processed in groups of kRgfBatchLanes; ragged groups are padded by
/// replicating the group's first energy (padding lanes are computed but
/// never read back, and never contract-checked).
inline constexpr size_t kRgfBatchLanes = 8;

/// Read only by perfbench's record line; delete with the `[benchmark]` refresh.
inline bool rgf_batch_enabled() { return true; }

/// True when the branchless Smith reciprocal passed the one-time
/// self-check against std::complex division and the batch kernel runs
/// fully vectorized; false means it fell back to per-lane std::complex
/// division (bit-correct on any toolchain, slower). Asserted by the
/// batched-kernel solve-rate gate, PerfGate.* in tests/test_batch_rgf.cpp.
// Test seam: the kernel picks its reciprocal itself; only the timed gate asks which.
bool rgf_batch_uses_fast_reciprocal();

/// Results of one batched solve: two sweeps per lane, a forward
/// (left-connected) pass and a backward pass for the diagonal and last
/// column of G. Per-lane scalars are indexed [lane]; spectral planes are
/// [site * lanes() + lane] (lane-major within a site) so the transport
/// energy integrator reads one site across the batch as a contiguous
/// stripe. The real-space path fills the same layout from per-energy
/// block-RGF solves, one atom per site. The planes are raw Green's-function
/// quantities: the source/drain charge split and its sum-rule check live
/// in the energy integrator (transport.cpp), once for both paths. The
/// drain-side transmission that witnesses reciprocity is not computed
/// here: it lives in the scalar oracle, and a property test holds this
/// kernel's T to it.
struct ScalarRgfBatchResult {
  std::vector<double> transmission;    ///< [lane]
  std::vector<double> spectral_total;  ///< -2 Im G_cc, [site * lanes + lane]
  std::vector<double> spectral_right;  ///< Gamma_R |G_{c,last}|^2, [site * lanes + lane]

  size_t lanes() const { return transmission.size(); }

  const double* spectral_total_row(size_t site) const {
    return spectral_total.data() + site * lanes();
  }
  const double* spectral_right_row(size_t site) const {
    return spectral_right.data() + site * lanes();
  }
};

/// Caller-owned scratch: the SoA sweep planes of one kernel group.
/// Contents carry no state between solves; reuse across the energy loop
/// makes batched solves allocation-free once warm.
struct ScalarRgfBatchWorkspace {
  std::vector<double> gl_re, gl_im;      ///< left-connected g planes
  std::vector<double> gd_re, gd_im;      ///< full-G diagonal planes
  std::vector<double> gcol_re, gcol_im;  ///< last-column G planes
};

/// Solve `chain` at `energies_eV[0..count)` + i*eta in one call. Each
/// lane's outputs are bit-identical to the scalar oracle at that energy;
/// `out` is resized and overwritten. `count` may be any size >= 1
/// (processed in groups of kRgfBatchLanes).
void scalar_rgf_solve_batch(const ScalarChain& chain, const double* energies_eV, size_t count,
                            double eta_eV, ScalarRgfBatchWorkspace& ws,
                            ScalarRgfBatchResult& out);

/// Fermi factors for a batch of energies: out[k] = fermi(e[k] - mu, kT),
/// the exact per-energy calls of the transport energy integrator hoisted
/// into one precomputed array (bit-identical by construction).
void fermi_factors(const double* energies_eV, size_t count, double mu_eV, double kT_eV,
                   double* out);

}  // namespace gnrfet::negf
