#pragma once

#include <cstddef>
#include <vector>

#include "negf/scalar_rgf.hpp"

/// SIMD-batched scalar RGF: solve one ScalarChain at B energies in a single
/// kernel call. All sweep state is laid out structure-of-arrays over an
/// energy "lane" dimension — `gl/gd/gcol` become [site][lane] planes of
/// split real/imaginary arrays — so the site recurrence, which is
/// sequential over sites but embarrassingly independent across energies,
/// auto-vectorizes across lanes.
///
/// Determinism contract: every lane performs arithmetic identical to
/// scalar_rgf_solve at that energy — the same operations in the same order,
/// with complex multiplies expanded to the naive (ac - bd, ad + bc) form
/// the compiler emits for finite std::complex products, and complex
/// reciprocals through a branchless Smith kernel that reproduces libgcc's
/// __divdc3 bit-for-bit for in-range operands (verified once per process
/// against std::complex division over a probe grid spanning both Smith
/// branches and extreme magnitudes; on any mismatch the kernel drops to
/// per-lane std::complex division, which is bit-identical by construction).
/// Results are therefore bit-equal to the per-energy scalar path for any
/// batch width, including ragged remainders — locked by tests.
namespace gnrfet::negf {

/// SoA lane width of one kernel group. Batches wider than this are
/// processed in groups of kRgfBatchLanes; ragged groups are padded by
/// replicating the group's first energy (padding lanes are computed but
/// never read back, and never contract-checked).
inline constexpr size_t kRgfBatchLanes = 8;

/// True unless GNRFET_RGF_BATCH=off. `off` pins the legacy per-energy
/// scalar path (bit-for-bit the PR-5 behavior); `on` (default) routes the
/// mode-space transport hot loops through the batch kernel. The real-space
/// path has one per-energy kernel and ignores the knob. Throws
/// std::invalid_argument on any other value.
bool rgf_batch_enabled();

/// True when the branchless Smith reciprocal passed the one-time
/// self-check against std::complex division and the batch kernel runs
/// fully vectorized; false means it fell back to per-lane std::complex
/// division (bit-correct on any toolchain, slower). Exposed for the
/// bench/CI perf gates.
bool rgf_batch_uses_fast_reciprocal();

/// Results of one batched solve. Per-lane scalars are indexed [lane];
/// spectral planes are [site * lanes() + lane] (lane-major within a site)
/// so the transport accumulation loop reads one site across the batch as
/// a contiguous stripe.
struct ScalarRgfBatchResult {
  std::vector<double> transmission;          ///< [lane]
  std::vector<double> transmission_reverse;  ///< [lane]; drain-side sweep
  std::vector<double> spectral_left;         ///< [site * lanes + lane]
  std::vector<double> spectral_right;        ///< [site * lanes + lane]

  size_t lanes() const { return transmission.size(); }

  const double* spectral_left_row(size_t site) const {
    return spectral_left.data() + site * lanes();
  }
  const double* spectral_right_row(size_t site) const {
    return spectral_right.data() + site * lanes();
  }
};

/// Caller-owned scratch (à la ScalarRgfWorkspace): the SoA sweep planes of
/// one kernel group. Contents carry no state between solves; reuse across
/// the energy loop makes batched solves allocation-free once warm.
struct ScalarRgfBatchWorkspace {
  std::vector<double> gl_re, gl_im;      ///< left-connected g planes
  std::vector<double> gd_re, gd_im;      ///< full-G diagonal planes
  std::vector<double> gcol_re, gcol_im;  ///< last-column G planes
  std::vector<double> gr_re, gr_im;      ///< right-connected planes
};

/// Solve `chain` at `energies_eV[0..count)` + i*eta in one call. Each
/// lane's outputs are bit-identical to scalar_rgf_solve at that energy;
/// `out` is resized and overwritten. `count` may be any size >= 1
/// (processed in groups of kRgfBatchLanes).
void scalar_rgf_solve_batch(const ScalarChain& chain, const double* energies_eV, size_t count,
                            double eta_eV, ScalarRgfBatchWorkspace& ws,
                            ScalarRgfBatchResult& out);

/// Fermi factors for a batch of energies: out[k] = fermi(e[k] - mu, kT),
/// the exact per-energy calls of the transport accumulation loops hoisted
/// into one precomputed array (bit-identical by construction). Shared by
/// the uniform and adaptive mode-space paths.
void fermi_factors(const double* energies_eV, size_t count, double mu_eV, double kT_eV,
                   double* out);

}  // namespace gnrfet::negf
