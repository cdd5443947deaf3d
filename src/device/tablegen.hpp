#pragma once

#include <string>
#include <vector>

#include "device/geometry.hpp"
#include "device/selfconsistent.hpp"

/// Generation (with on-disk caching) of the intrinsic-device lookup tables
/// I_D(V_G, V_D) and Q(V_G, V_D) that feed the circuit simulator (Sec. 3).
namespace gnrfet::device {

/// Intrinsic single-GNR device table on a rectangular bias grid.
struct DeviceTable {
  std::vector<double> vg;        ///< gate axis [V], ascending
  std::vector<double> vd;        ///< drain axis [V], ascending
  std::vector<double> current_A; ///< row-major [ivg * nvd + ivd]
  std::vector<double> charge_C;  ///< channel charge, same layout
  double band_gap_eV = 0.0;

  double at_current(size_t ivg, size_t ivd) const { return current_A[ivg * vd.size() + ivd]; }
  double at_charge(size_t ivg, size_t ivd) const { return charge_C[ivg * vd.size() + ivd]; }
};

struct TableGenOptions {
  double vg_min = 0.0;
  double vg_max = 0.75;
  double vd_min = 0.0;
  double vd_max = 0.75;
  size_t vg_points = 16;  ///< 0.05 V steps over [0, 0.75]
  size_t vd_points = 16;
  SolveOptions solve;
  bool use_cache = true;
  /// Read only by perfbench's record line; delete with the `[benchmark]` refresh.
  static constexpr bool warm_bias_context = false;
};

/// Serializable identity of (spec, options); the cache key.
std::string table_cache_payload(const DeviceSpec& spec, const TableGenOptions& opts);

/// Generate (or load from cache) the device table. Generation walks the
/// bias grid warm-starting each point from its neighbour. A generated table
/// with any unconverged bias point is returned but not written to the cache.
/// A cache entry that load_table rejects is regenerated and replaced
/// (counted as table_cache_corrupt_replaced), never served.
DeviceTable generate_device_table(const DeviceSpec& spec, const TableGenOptions& opts = {});

/// Serialization helpers (exposed for tests).
void save_table(const DeviceTable& table, const std::string& path, const std::string& key);
DeviceTable load_table(const std::string& path);

}  // namespace gnrfet::device
