#pragma once

#include <complex>
#include <vector>

#include "gnr/hamiltonian.hpp"
#include "linalg/dense.hpp"
#include "negf/batch_rgf.hpp"
#include "negf/rgf.hpp"

/// Test oracles of the negf layer: the one-energy scalar RGF that the
/// batched kernel (negf/batch_rgf.hpp) must match bit for bit, the dense
/// full-matrix solve that validates the block RGF (negf/rgf.hpp), and the
/// Sancho-Rubio surface Green's function of the semi-infinite ideal ribbon
/// (transmission staircase of the perfect ribbon), with the dense helpers
/// they share.
namespace gnrfet::negf {

/// `h` assembled into one dense matrix.
linalg::CMatrix to_dense(const gnr::BlockTridiagonal& h);

/// Largest |m_ij|.
double max_abs(const linalg::CMatrix& m);

struct ScalarRgfResult {
  double transmission = 0.0;
  /// Transmission computed independently from the drain side (right-
  /// connected sweep). Equal to `transmission` up to roundoff in the
  /// ballistic limit; the reciprocal-transmission contract checks the
  /// mismatch. The production kernel makes no drain-side sweep: this is
  /// the witness its `transmission` is tested against.
  double transmission_reverse = 0.0;
  std::vector<double> spectral_total;  ///< A_cc = -2 Im G_cc per site
  std::vector<double> spectral_left;   ///< A_L,cc = max(0, A_cc - A_R,cc) per site
  std::vector<double> spectral_right;  ///< A_R,cc per site
};

/// Caller-owned scratch for scalar_rgf_solve: the left/right-connected
/// sweeps and full-Green buffers. Contents carry no state between solves,
/// so reuse cannot change results.
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

/// rgf_solve by one dense inversion of the full matrix; O(dim^3) per
/// energy.
RgfResult dense_reference_solve(const gnr::BlockTridiagonal& h, double energy_eV, double eta_eV,
                                const linalg::CMatrix& sigma_left,
                                const linalg::CMatrix& sigma_right);

/// Sancho-Rubio decimation for the surface Green's function of a
/// semi-infinite periodic lead with onsite block h00 and inter-cell
/// coupling h01 (cell i -> cell i+1 toward the device).
/// For a right lead (interior toward +x) pass h01 and use
/// Sigma_R = h01 * g_s * h01^dagger; for a left lead (interior toward -x)
/// pass h01^dagger and use Sigma_L = h01^dagger * g_s * h01.
linalg::CMatrix sancho_rubio_surface_gf(linalg::cplx energy, const linalg::CMatrix& h00,
                                        const linalg::CMatrix& h01, double tol = 1e-12,
                                        int max_iter = 200);

/// Broadening matrix Gamma = i (Sigma - Sigma^dagger).
linalg::CMatrix broadening(const linalg::CMatrix& sigma);

}  // namespace gnrfet::negf
