#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gnr/modespace.hpp"
#include "negf/transport.hpp"

/// Helpers behind the bit-exact regression pins: an FNV-1a hash over the
/// raw bytes of a double vector (equal hashes mean bit-identical doubles)
/// and the fixed mode-space problem of the uniform-grid transport pin.
namespace gnrfet::tests {

inline uint64_t fnv1a(const std::vector<double>& v) {
  uint64_t h = 1469598103934665603ull;
  for (const double d : v) {
    unsigned char b[sizeof(double)];
    std::memcpy(b, &d, sizeof(double));
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  return h;
}

inline std::vector<double> flatten(const std::vector<std::vector<double>>& m) {
  std::vector<double> f;
  for (const auto& row : m) f.insert(f.end(), row.begin(), row.end());
  return f;
}

/// The fixed mode-space problem behind the uniform golden pin: a 12-line
/// ribbon with a source-drain ramp plus a line-direction ripple.
struct GoldenProblem {
  gnr::ModeSet modes = gnr::build_mode_set(12, {2.7, 0.12}, 3);
  std::vector<std::vector<double>> u;
  negf::TransportOptions opts;

  GoldenProblem() {
    const size_t ncol = 32;
    u.assign(ncol, std::vector<double>(12, 0.0));
    for (size_t c = 0; c < ncol; ++c) {
      const double x = static_cast<double>(c) / static_cast<double>(ncol - 1);
      for (size_t j = 0; j < 12; ++j) {
        u[c][j] = -0.3 - 0.4 * x + 0.02 * std::cos(0.7 * static_cast<double>(j));
      }
    }
    opts.mu_drain_eV = -0.4;
    opts.energy_step_eV = 2e-3;
  }
};

}  // namespace gnrfet::tests
