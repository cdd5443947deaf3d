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

/// Caller-owned scratch for rgf_solve_batch: one RgfWorkspace per energy
/// lane plus the buffers the batch shares across lanes (identity RHS,
/// coupling adjoints, contact broadenings — all energy-independent).
struct RgfBatchWorkspace {
  std::vector<RgfWorkspace> lane;    ///< per-lane sweep state and LU
  linalg::CMatrix eye;               ///< shared identity RHS per block
  linalg::CMatrix v_dn;              ///< shared coupling adjoint per block
  linalg::CMatrix gamma_l, gamma_r;  ///< contact broadenings (per batch)
  linalg::CMatrix adj_scratch;       ///< adjoint scratch for broadening
};

/// Small-B energy batch over the per-block LU solves: solve `h` at
/// `energies_eV[0..count)` in one call, blocks outer and lanes inner, with
/// the energy-independent work — Hermiticity check, per-block coupling
/// adjoint and identity RHS, contact broadenings — hoisted out of the lane
/// loop. Each lane's outputs are bit-identical to rgf_solve at that
/// energy; `out` is resized to `count`.
void rgf_solve_batch(const gnr::BlockTridiagonal& h, const double* energies_eV, size_t count,
                     double eta_eV, const linalg::CMatrix& sigma_left,
                     const linalg::CMatrix& sigma_right, RgfBatchWorkspace& ws,
                     std::vector<RgfResult>& out);

/// Reference implementation via one dense inversion of the full matrix;
/// O(dim^3) per energy, used only by tests to validate rgf_solve.
RgfResult dense_reference_solve(const gnr::BlockTridiagonal& h, double energy_eV, double eta_eV,
                                const linalg::CMatrix& sigma_left,
                                const linalg::CMatrix& sigma_right);

}  // namespace gnrfet::negf
