#pragma once

#include <complex>
#include <vector>

/// Scalar recursive Green's function for 1D chains — the fast path used by
/// the uncoupled mode-space solver. Each transverse subband of the A-GNR is
/// an SSH-like chain (alternating real hoppings) with one orbital per
/// atomic column, so all RGF blocks are 1x1.
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

struct ScalarRgfResult {
  double transmission = 0.0;
  /// Transmission computed independently from the drain side (right-
  /// connected sweep), in every build. Equal to `transmission` up to
  /// roundoff in the ballistic limit; the contract layer checks the
  /// mismatch (source/drain current continuity) when checks are compiled
  /// in, and the transport layer integrates it into current_drain_A.
  double transmission_reverse = 0.0;
  std::vector<double> spectral_left;   ///< A_L,cc per site
  std::vector<double> spectral_right;  ///< A_R,cc per site
};

/// Caller-owned scratch for scalar_rgf_solve (à la linalg::PcgWorkspace):
/// the left/right-connected sweeps and full-Green buffers. Reusing one
/// workspace across the energy loop makes the per-energy solve
/// allocation-free after the first call; contents carry no state between
/// solves, so reuse cannot change results.
struct ScalarRgfWorkspace {
  std::vector<std::complex<double>> gl;    ///< left-connected g
  std::vector<std::complex<double>> gd;    ///< full-G diagonal
  std::vector<std::complex<double>> gcol;  ///< last-column G elements
  std::vector<std::complex<double>> gr;    ///< right-connected sweep
};

/// Solve the chain at E + i*eta.
ScalarRgfResult scalar_rgf_solve(const ScalarChain& chain, double energy_eV, double eta_eV);

/// Workspace variant: identical arithmetic (bit-for-bit equal results),
/// zero heap allocation once `ws` and `out` have warmed to the chain
/// length. `out`'s spectral vectors are resized, scalars overwritten.
void scalar_rgf_solve(const ScalarChain& chain, double energy_eV, double eta_eV,
                      ScalarRgfWorkspace& ws, ScalarRgfResult& out);

}  // namespace gnrfet::negf
