#pragma once

#include <vector>

#include "gnr/hamiltonian.hpp"
#include "linalg/dense.hpp"
#include "linalg/lu.hpp"

/// Recursive Green's function (RGF) solver for block-tridiagonal
/// Hamiltonians with self-energies on the first and last block.
///
/// For each energy it returns the quantities the transport layer needs:
/// transmission T(E) and the orbital-resolved contact spectral functions
/// A_L,ii and A_R,ii (diagonals), from which bipolar charge is assembled.
namespace gnrfet::negf {

struct RgfResult {
  double transmission = 0.0;
  /// Diagonal of the source-injected spectral function per orbital,
  /// concatenated slice by slice.
  std::vector<double> spectral_left;
  /// Diagonal of the drain-injected spectral function per orbital.
  std::vector<double> spectral_right;
};

/// Caller-owned scratch for rgf_solve: sweep buffers, block scratch, and a
/// reusable LU factorization (à la linalg::PcgWorkspace). One workspace per
/// thread; reuse across the energy loop makes the per-energy block solve
/// allocation-free once every buffer has warmed to the device block sizes.
struct RgfWorkspace {
  std::vector<linalg::CMatrix> gl;     ///< left-connected Green's functions
  std::vector<linalg::CMatrix> gdiag;  ///< full-G diagonal blocks
  std::vector<linalg::CMatrix> gcol;   ///< last-column blocks G_{i,last}
  linalg::CMatrix a;                   ///< (E + i eta) - H block under solve
  linalg::CMatrix eye;                 ///< identity right-hand side
  linalg::CMatrix v_dn;                ///< adjoint coupling scratch
  linalg::CMatrix t1, t2;              ///< multiply-chain scratch
  linalg::CMatrix gamma_l, gamma_r;    ///< contact broadenings
  linalg::LU<linalg::cplx> lu;         ///< refactored per block
};

/// Solve at complex energy E + i*eta. `sigma_left` acts on block 0,
/// `sigma_right` on the last block. Throws on shape mismatches.
RgfResult rgf_solve(const gnr::BlockTridiagonal& h, double energy_eV, double eta_eV,
                    const linalg::CMatrix& sigma_left, const linalg::CMatrix& sigma_right);

/// Workspace variant: identical arithmetic (bit-for-bit equal results),
/// zero heap allocation once `ws` and `out` have warmed to the block
/// layout of `h`.
void rgf_solve(const gnr::BlockTridiagonal& h, double energy_eV, double eta_eV,
               const linalg::CMatrix& sigma_left, const linalg::CMatrix& sigma_right,
               RgfWorkspace& ws, RgfResult& out);

/// Reference implementation via one dense inversion of the full matrix;
/// O(dim^3) per energy, used only by tests to validate rgf_solve.
RgfResult dense_reference_solve(const gnr::BlockTridiagonal& h, double energy_eV, double eta_eV,
                                const linalg::CMatrix& sigma_left,
                                const linalg::CMatrix& sigma_right);

}  // namespace gnrfet::negf
