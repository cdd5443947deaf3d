#include "linalg/dense.hpp"

#include <algorithm>
#include <cmath>

namespace gnrfet::linalg {

void multiply_into(CMatrix& c, const CMatrix& a, const CMatrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("multiply_into: shape mismatch");
  c.resize_zero(a.rows(), b.cols());
  const size_t n = a.rows();
  const size_t kk = a.cols();
  const size_t m = b.cols();
  const double* ad = reinterpret_cast<const double*>(a.data());
  const double* bd = reinterpret_cast<const double*>(b.data());
  double* cd = reinterpret_cast<double*>(c.data());
  // k-tiles keep the touched rows of b resident across i. For a fixed
  // (i, j) the tiles arrive in ascending k — the template's accumulation
  // order exactly, so results stay bit-identical.
  constexpr size_t kTileK = 32;
  for (size_t k0 = 0; k0 < kk; k0 += kTileK) {
    const size_t k1 = std::min(kk, k0 + kTileK);
    for (size_t i = 0; i < n; ++i) {
      const double* arow = ad + 2 * i * kk;
      double* crow = cd + 2 * i * m;
      for (size_t k = k0; k < k1; ++k) {
        const double ar = arow[2 * k];
        const double ai = arow[2 * k + 1];
        if (ar == 0.0 && ai == 0.0) continue;
        const double* brow = bd + 2 * k * m;
        for (size_t j = 0; j < m; ++j) {
          const double br = brow[2 * j];
          const double bi = brow[2 * j + 1];
          crow[2 * j] += ar * br - ai * bi;
          crow[2 * j + 1] += ar * bi + ai * br;
        }
      }
    }
  }
}

void adjoint_into(CMatrix& dst, const CMatrix& src) {
  dst.resize_zero(src.cols(), src.rows());
  const size_t n = src.rows();
  const size_t m = src.cols();
  // Square tiles bound the transpose's strided-write working set to a few
  // cache lines per tile; conjugation is exact, so order is free.
  constexpr size_t kTile = 16;
  for (size_t i0 = 0; i0 < n; i0 += kTile) {
    const size_t i1 = std::min(n, i0 + kTile);
    for (size_t j0 = 0; j0 < m; j0 += kTile) {
      const size_t j1 = std::min(m, j0 + kTile);
      for (size_t i = i0; i < i1; ++i) {
        for (size_t j = j0; j < j1; ++j) dst(j, i) = std::conj(src(i, j));
      }
    }
  }
}

}  // namespace gnrfet::linalg
