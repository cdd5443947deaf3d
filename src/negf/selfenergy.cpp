#include "negf/selfenergy.hpp"

namespace gnrfet::negf {

using linalg::CMatrix;
using linalg::cplx;

CMatrix wide_band_self_energy(size_t dim, double gamma_eV) {
  CMatrix s(dim, dim);
  const cplx v(0.0, -0.5 * gamma_eV);
  for (size_t i = 0; i < dim; ++i) s(i, i) = v;
  return s;
}

}  // namespace gnrfet::negf
