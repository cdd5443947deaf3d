#pragma once

#include <vector>

#include "gnr/hamiltonian.hpp"
#include "linalg/dense.hpp"
#include "linalg/lu.hpp"

/// Recursive Green's function (RGF) solver for block-tridiagonal
/// Hamiltonians with self-energies on the first and last block.
///
/// For each energy it returns the quantities the transport layer needs:
/// transmission T(E) and the orbital-resolved diagonals of the total and
/// drain-injected spectral functions A_ii and A_R,ii, from which the
/// energy integrator (transport.cpp) splits and assembles bipolar charge.
namespace gnrfet::negf {

struct RgfResult {
  double transmission = 0.0;
  /// Diagonal of the total spectral function, -2 Im G_ii, per orbital,
  /// concatenated slice by slice.
  std::vector<double> spectral_total;
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

/// Solve at complex energy E + i*eta into `out`. `sigma_left` acts on
/// block 0, `sigma_right` on the last block. Throws on shape mismatches.
/// Zero heap allocation once `ws` and `out` have warmed to the block layout
/// of `h`; the workspace carries no state between solves.
void rgf_solve(const gnr::BlockTridiagonal& h, double energy_eV, double eta_eV,
               const linalg::CMatrix& sigma_left, const linalg::CMatrix& sigma_right,
               RgfWorkspace& ws, RgfResult& out);

}  // namespace gnrfet::negf
