#include "common/constants.hpp"

#include <cmath>

namespace gnrfet::constants {

double fermi(double e_minus_mu_eV, double kT_eV) {
  const double x = e_minus_mu_eV / kT_eV;
  if (x > 40.0) return std::exp(-x);
  if (x < -40.0) return 1.0;
  return 1.0 / (1.0 + std::exp(x));
}

}  // namespace gnrfet::constants
