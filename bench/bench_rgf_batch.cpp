/// Batched-RGF benchmark: the SoA energy-batch kernel (negf/batch_rgf)
/// against the per-energy scalar kernel that stays as its oracle, on the
/// fig2-style source-drain ramp family. Two phases:
///
///   kernel    — raw scalar_rgf_solve vs scalar_rgf_solve_batch solve
///               rates over the subband chains of the ramp family, with
///               an FNV-1a hash of every transmission value as the
///               bit-identity witness.
///   transport — one full solve_mode_space sweep; the CI perf-smoke stage
///               asserts its current hash matches across GNRFET_THREADS
///               values.
///
/// Emits bench_out/BENCH_rgf.json, one record per line; perf-smoke
/// asserts kernel speedup >= 1.5x.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/parallel.hpp"
#include "gnr/modespace.hpp"
#include "negf/batch_rgf.hpp"
#include "negf/scalar_rgf.hpp"
#include "negf/transport.hpp"

using namespace gnrfet;

namespace {

std::vector<std::vector<double>> ramp_potential(size_t ncol, size_t nlines, double vd) {
  std::vector<std::vector<double>> u(ncol, std::vector<double>(nlines, 0.0));
  for (size_t c = 0; c < ncol; ++c) {
    const double x = static_cast<double>(c) / static_cast<double>(ncol - 1);
    for (size_t j = 0; j < nlines; ++j) {
      u[c][j] = -0.3 - vd * x + 0.02 * std::cos(0.7 * static_cast<double>(j));
    }
  }
  return u;
}

/// The subband chains the mode-space solver extracts from the ramp: one
/// SSH-like chain per (bias, subband) with the column potential on-site.
std::vector<negf::ScalarChain> ramp_chains(size_t ncol, int nvd) {
  std::vector<negf::ScalarChain> chains;
  for (int i = 0; i < nvd; ++i) {
    const double vd = 0.05 + 0.45 * static_cast<double>(i) / static_cast<double>(nvd - 1);
    const auto u = ramp_potential(ncol, 3, vd);
    for (size_t j = 0; j < 3; ++j) {
      negf::ScalarChain c;
      c.onsite.resize(ncol);
      c.hopping.resize(ncol - 1);
      for (size_t col = 0; col < ncol; ++col) c.onsite[col] = u[col][j];
      for (size_t col = 0; col + 1 < ncol; ++col) {
        c.hopping[col] = (col % 2 == 0) ? -2.7 : -2.43;
      }
      c.gamma_left = 0.05;
      c.gamma_right = 0.05;
      chains.push_back(std::move(c));
    }
  }
  return chains;
}

uint64_t fnv1a(const std::vector<double>& v) {
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

std::string hex16(uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

int effective_simd_width() {
#if defined(__AVX512F__)
  return 8;
#elif defined(__AVX__)
  return 4;
#elif defined(__SSE2__) || defined(__x86_64__)
  return 2;
#else
  return 1;
#endif
}

}  // namespace

int main() {
  const size_t ncol =
      static_cast<size_t>(common::env::get_positive_int("GNRFET_BENCH_RGF_NCOL", 64));
  const int nvd = common::env::get_positive_int("GNRFET_BENCH_RGF_NVD", 6);
  const int ne = common::env::get_positive_int("GNRFET_BENCH_RGF_NE", 608);
  const int repeats = common::env::get_positive_int("GNRFET_BENCH_RGF_REPEATS", 3);

  bench::banner("Batched RGF kernels (SoA energy lanes vs per-energy scalar)");
  std::printf("%zu columns, %d bias points, %d energies, %d repeats, SIMD width %d%s\n", ncol,
              nvd, ne, repeats, effective_simd_width(),
              negf::rgf_batch_uses_fast_reciprocal() ? ", fast reciprocal"
                                                     : ", std reciprocal fallback");

  const auto chains = ramp_chains(ncol, nvd);
  std::vector<double> energies(static_cast<size_t>(ne));
  for (int k = 0; k < ne; ++k) {
    energies[static_cast<size_t>(k)] = -0.9 + 1.2 * static_cast<double>(k) /
                                                 static_cast<double>(ne - 1);
  }
  const double eta = 1e-4;
  const auto total_solves =
      static_cast<double>(chains.size()) * static_cast<double>(ne) * repeats;

  bench::output_path("rgf_batch");  // ensures bench_out/ exists
  std::ofstream json("bench_out/BENCH_rgf.json");

  // --- kernel phase: per-energy scalar path -------------------------------
  std::vector<double> t_scalar;
  double sec_scalar = 0.0;
  {
    bench::PhaseTimer timer("rgf_batch", "kernel_scalar");
    negf::ScalarRgfWorkspace ws;
    negf::ScalarRgfResult out;
    for (int r = 0; r < repeats; ++r) {
      for (const auto& chain : chains) {
        for (const double e : energies) {
          negf::scalar_rgf_solve(chain, e, eta, ws, out);
          if (r == 0) t_scalar.push_back(out.transmission);
        }
      }
    }
    sec_scalar = timer.stop();
  }

  // --- kernel phase: SoA batch path ---------------------------------------
  std::vector<double> t_batch;
  double sec_batch = 0.0;
  {
    bench::PhaseTimer timer("rgf_batch", "kernel_batch");
    negf::ScalarRgfBatchWorkspace ws;
    negf::ScalarRgfBatchResult out;
    for (int r = 0; r < repeats; ++r) {
      for (const auto& chain : chains) {
        for (size_t k0 = 0; k0 < energies.size(); k0 += negf::kRgfBatchLanes) {
          const size_t nb = std::min(negf::kRgfBatchLanes, energies.size() - k0);
          negf::scalar_rgf_solve_batch(chain, energies.data() + k0, nb, eta, ws, out);
          if (r == 0) {
            for (size_t k = 0; k < nb; ++k) t_batch.push_back(out.transmission[k]);
          }
        }
      }
    }
    sec_batch = timer.stop();
  }

  const double rate_scalar = total_solves / sec_scalar;
  const double rate_batch = total_solves / sec_batch;
  const double speedup = rate_batch / rate_scalar;
  const uint64_t hash_scalar = fnv1a(t_scalar);
  const uint64_t hash_batch = fnv1a(t_batch);
  std::printf("scalar : %10.0f solves/s (%.3f s), T hash %s\n", rate_scalar, sec_scalar,
              hex16(hash_scalar).c_str());
  std::printf("batched: %10.0f solves/s (%.3f s), T hash %s, speedup %.2fx\n", rate_batch,
              sec_batch, hex16(hash_batch).c_str(), speedup);
  json << "{\"kind\":\"kernel\",\"path\":\"scalar\",\"solves_per_s\":" << rate_scalar
       << ",\"seconds\":" << sec_scalar << ",\"transmission_hash\":\"" << hex16(hash_scalar)
       << "\"}\n";
  json << "{\"kind\":\"kernel\",\"path\":\"batch\",\"solves_per_s\":" << rate_batch
       << ",\"seconds\":" << sec_batch << ",\"speedup\":" << speedup
       << ",\"transmission_hash\":\"" << hex16(hash_batch) << "\"}\n";

  // --- transport phase: full mode-space sweep -----------------------------
  const auto modes = gnr::build_mode_set(12, {2.7, 0.12}, 3);
  const size_t nlines = static_cast<size_t>(modes.n_index);
  {
    bench::PhaseTimer timer("rgf_batch", "transport");
    std::vector<double> currents;
    for (int i = 0; i < nvd; ++i) {
      const double vd = 0.05 + 0.45 * static_cast<double>(i) / static_cast<double>(nvd - 1);
      negf::TransportOptions opt;
      opt.mu_drain_eV = -vd;
      opt.energy_step_eV = 2e-3;
      const auto sol = negf::solve_mode_space(modes, ramp_potential(ncol, nlines, vd), opt);
      currents.push_back(sol.current_A);
    }
    const double sec = timer.stop();
    const uint64_t h = fnv1a(currents);
    std::printf("transport: %.3f s, I hash %s\n", sec, hex16(h).c_str());
    json << "{\"kind\":\"transport\",\"seconds\":" << sec << ",\"current_hash\":\""
         << hex16(h) << "\"}\n";
  }

  json << "{\"kind\":\"env\",\"simd_width\":" << effective_simd_width()
       << ",\"fast_reciprocal\":" << (negf::rgf_batch_uses_fast_reciprocal() ? "true" : "false")
       << ",\"batch_lanes\":" << negf::kRgfBatchLanes << ",\"threads\":" << par::thread_count()
       << "}\n";
  json.close();
  std::printf("[json] bench_out/BENCH_rgf.json\n");
  return 0;
}
