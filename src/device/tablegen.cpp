#include "device/tablegen.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/cache.hpp"
#include "common/constants.hpp"
#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/trace.hpp"
#include "device/sweeps.hpp"

namespace gnrfet::device {

std::string table_cache_payload(const DeviceSpec& spec, const TableGenOptions& opts) {
  std::ostringstream os;
  // max_digits10: the key must distinguish every representable bias/option
  // value. At the old precision(10), two specs differing below the 11th
  // significant digit collided onto one cache key and served the wrong
  // table. Keys for non-representable decimal values change with this fix
  // (those cache entries regenerate once).
  os.precision(std::numeric_limits<double>::max_digits10);
  os << spec.cache_key() << "|vg[" << opts.vg_min << "," << opts.vg_max << ","
     << opts.vg_points << "]vd[" << opts.vd_min << "," << opts.vd_max << "," << opts.vd_points
     << "]de=" << opts.solve.energy_step_eV << ";eta=" << negf::kEta_eV
     << ";kT=" << constants::kRoomTemperatureKT_eV << ";gtol=" << opts.solve.gummel_tolerance_V
     << ";gmax=" << opts.solve.max_gummel_iterations;
  // Poisson solver version: each change of the Newton solve moves table
  // bits, so entries cached under an older token are regenerated instead of
  // served, and a cache hit stays bit-equal to a miss. "cap-ew": the
  // capacitance-matrix Newton, each CG stopped at an Eisenstat-Walker
  // forcing term on the Newton residual.
  os << ";poisson=cap-ew";
  return os.str();
}

void save_table(const DeviceTable& table, const std::string& path, const std::string& key) {
  trace::Span span("device", "save_table");
  csv::Table t({"vg", "vd", "current_A", "charge_C"});
  t.set_meta("key", key);
  // std::to_string truncates to 6 digits; the metadata must round-trip the
  // gap bit-for-bit just like the table body (cache hit == cache miss).
  std::ostringstream gap;
  gap.precision(std::numeric_limits<double>::max_digits10);
  gap << table.band_gap_eV;
  t.set_meta("band_gap_eV", gap.str());
  t.set_meta("nvg", std::to_string(table.vg.size()));
  t.set_meta("nvd", std::to_string(table.vd.size()));
  for (size_t ig = 0; ig < table.vg.size(); ++ig) {
    for (size_t id = 0; id < table.vd.size(); ++id) {
      t.add_row({table.vg[ig], table.vd[id], table.at_current(ig, id), table.at_charge(ig, id)});
    }
  }
  // Write-to-temp + atomic rename: concurrent benches sharing data/cache
  // (or a crash mid-write) can never leave a torn CSV at the final path.
  // The suffix carries pid + thread id + a process-wide counter: two
  // threads of one process racing on the same cache path must not share a
  // temp file, or one renames the other's half-written table into place.
  static std::atomic<uint64_t> tmp_counter{0};
  std::ostringstream suffix;
  suffix << ::getpid() << "." << std::this_thread::get_id() << "."
         << tmp_counter.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp = path + ".tmp." + suffix.str();
  try {
    t.save(tmp);
  } catch (const std::exception& e) {
    // A failed write (disk full, unwritable directory) must not leave the
    // partial temp file behind; rethrow with the final path named.
    std::error_code cleanup_ec;
    std::filesystem::remove(tmp, cleanup_ec);
    throw std::runtime_error("save_table: cannot write " + path + ": " + e.what());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const std::string reason = ec.message();
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error("save_table: cannot rename into place: " + path + ": " + reason);
  }
}

namespace {

/// Contract check of a finished table, whether freshly generated or loaded
/// from the on-disk cache: bias axes strictly ascending, every current and
/// charge entry finite, band gap physical. `origin` names the producer in
/// the violation detail.
void validate_table(const DeviceTable& table, const std::string& origin) {
  GNRFET_REQUIRE("device/tablegen", "monotone-bias-axes",
                 contracts::strictly_ascending(table.vg) &&
                     contracts::strictly_ascending(table.vd),
                 origin + ": vg/vd axes must be finite and strictly ascending");
  GNRFET_REQUIRE("device/tablegen", "finite-table",
                 contracts::all_finite(table.current_A) && contracts::all_finite(table.charge_C),
                 origin + ": current/charge entries contain NaN/inf");
  GNRFET_REQUIRE("device/tablegen", "physical-band-gap",
                 std::isfinite(table.band_gap_eV) && table.band_gap_eV >= 0.0,
                 origin + ": band_gap_eV = " + std::to_string(table.band_gap_eV));
}

/// Parse a required size_t metadata field of a cached table, with errors
/// that name the file and field instead of std::stoul's bare exceptions.
size_t require_size_meta(const csv::Table& t, const std::string& key, const std::string& path) {
  const std::string raw = t.meta(key);
  if (raw.empty()) {
    throw std::runtime_error("load_table: " + path + ": missing '" + key +
                             "' metadata (corrupt or truncated cache file)");
  }
  // Digits only, up front: std::stoul accepts leading whitespace and a
  // sign, and "-3" wraps to ~2^64 — which passes the pos/nonzero checks and
  // turns a corrupt cache file into an overflow/bad_alloc far from here.
  const bool digits_only = raw.find_first_not_of("0123456789") == std::string::npos;
  size_t pos = 0;
  unsigned long value = 0;
  try {
    if (digits_only) value = std::stoul(raw, &pos);
  } catch (const std::exception&) {
    pos = 0;  // out_of_range on absurdly long digit strings
  }
  if (!digits_only || pos != raw.size() || value == 0) {
    throw std::runtime_error("load_table: " + path + ": malformed '" + key + "' metadata '" +
                             raw + "' (corrupt cache file)");
  }
  return static_cast<size_t>(value);
}

/// Parse a required double metadata field of a cached table, with the
/// same file-and-field errors as require_size_meta.
double require_double_meta(const csv::Table& t, const std::string& key, const std::string& path) {
  const std::string raw = t.meta(key);
  if (raw.empty()) {
    throw std::runtime_error("load_table: " + path + ": missing '" + key +
                             "' metadata (corrupt or truncated cache file)");
  }
  double value = 0.0;
  if (!strings::parse_double(raw, value)) {
    throw std::runtime_error("load_table: " + path + ": malformed '" + key + "' metadata '" +
                             raw + "' (corrupt cache file)");
  }
  return value;
}

}  // namespace

DeviceTable load_table(const std::string& path) {
  trace::Span span("device", "load_table");
  const csv::Table t = csv::Table::load(path);
  DeviceTable table;
  const size_t nvg = require_size_meta(t, "nvg", path);
  const size_t nvd = require_size_meta(t, "nvd", path);
  // Bound the product before computing it: corrupt sizes whose product
  // wraps could alias the actual row count and drive resize() into a
  // multi-exabyte allocation instead of the corrupt-cache-file error.
  if (nvg > std::numeric_limits<size_t>::max() / nvd) {
    throw std::runtime_error("load_table: " + path + ": nvg*nvd = " + std::to_string(nvg) +
                             "*" + std::to_string(nvd) +
                             " overflows size_t (corrupt cache file)");
  }
  if (t.num_rows() != nvg * nvd) {
    throw std::runtime_error("load_table: " + path + ": row count " +
                             std::to_string(t.num_rows()) + " != nvg*nvd = " +
                             std::to_string(nvg * nvd) + " (corrupt cache file)");
  }
  table.vg.resize(nvg);
  table.vd.resize(nvd);
  table.current_A.resize(nvg * nvd);
  table.charge_C.resize(nvg * nvd);
  for (size_t ig = 0; ig < nvg; ++ig) {
    for (size_t id = 0; id < nvd; ++id) {
      const size_t row = ig * nvd + id;
      const double vg = t.at(row, "vg");
      const double vd = t.at(row, "vd");
      // Each row restates its axis coordinates; a row disagreeing with the
      // already-recorded entry means scrambled/truncated-and-padded data and
      // must not silently overwrite the axis.
      if (id == 0) {
        table.vg[ig] = vg;
      } else if (vg != table.vg[ig]) {
        throw std::runtime_error("load_table: " + path + ": row " + std::to_string(row) +
                                 " vg disagrees with its axis entry (corrupt cache file)");
      }
      if (ig == 0) {
        table.vd[id] = vd;
      } else if (vd != table.vd[id]) {
        throw std::runtime_error("load_table: " + path + ": row " + std::to_string(row) +
                                 " vd disagrees with its axis entry (corrupt cache file)");
      }
      table.current_A[row] = t.at(row, "current_A");
      table.charge_C[row] = t.at(row, "charge_C");
    }
  }
  table.band_gap_eV = require_double_meta(t, "band_gap_eV", path);
  validate_table(table, "load_table(" + path + ")");
  return table;
}

DeviceTable generate_device_table(const DeviceSpec& spec, const TableGenOptions& opts) {
  trace::Span span("device", "generate_device_table");
  // Only a cached generation names its entry: path_for creates the cache
  // directory, which an uncached one must neither need nor make.
  std::string payload, path;
  // An entry that does not load (truncated, hand-edited, written by a
  // broken build) is never served: the table is generated again and, once
  // converged, replaces it through save_table's atomic rename.
  bool corrupt = false;
  if (opts.use_cache) {
    payload = table_cache_payload(spec, opts);
    path = cache::path_for("device-table", payload);
    if (cache::exists(path)) {
      try {
        DeviceTable cached = load_table(path);
        metrics::add(metrics::Counter::kTableCacheHits);
        return cached;
      } catch (const std::exception&) {
        corrupt = true;
      }
    }
    metrics::add(metrics::Counter::kTableCacheMisses);
  }

  const DeviceGeometry geometry(spec);
  const SelfConsistentSolver solver(geometry, opts.solve);

  DeviceTable table;
  table.vg = voltage_axis(opts.vg_min, opts.vg_max, opts.vg_points);
  table.vd = voltage_axis(opts.vd_min, opts.vd_max, opts.vd_points);
  table.current_A.assign(opts.vg_points * opts.vd_points, 0.0);
  table.charge_C.assign(opts.vg_points * opts.vd_points, 0.0);
  table.band_gap_eV = geometry.modes().band_gap_eV();

  // Walk the grid drain-major, warm-starting each point from the previous
  // gate point in the same column, and each column head from the previous
  // column's head solution. Phase 1 solves the serial chain of column
  // heads (ig = 0 across drain biases); given its head, each drain column
  // is then independent, so phase 2 fans the intra-column VG chains out
  // across threads. The warm-start graph is identical to the serial walk,
  // so the table is bit-identical for any thread count.
  const size_t nvg = table.vg.size();
  const size_t nvd = table.vd.size();
  std::vector<DeviceSolution> heads(nvd);
  std::atomic<bool> all_converged{true};
  for (size_t id = 0; id < nvd; ++id) {
    heads[id] = solver.solve({table.vg[0], table.vd[id]}, id > 0 ? &heads[id - 1] : nullptr);
    if (!heads[id].converged) all_converged.store(false, std::memory_order_relaxed);
    table.current_A[id] = heads[id].current_A;
    table.charge_C[id] = -constants::kElementaryCharge * heads[id].net_electrons;
  }
  par::parallel_for(nvd, [&](size_t id) {
    DeviceSolution prev = heads[id];
    for (size_t ig = 1; ig < nvg; ++ig) {
      DeviceSolution sol = solver.solve({table.vg[ig], table.vd[id]}, &prev);
      if (!sol.converged) all_converged.store(false, std::memory_order_relaxed);
      const size_t idx = ig * nvd + id;
      table.current_A[idx] = sol.current_A;
      table.charge_C[idx] = -constants::kElementaryCharge * sol.net_electrons;
      prev = std::move(sol);
    }
  });

  validate_table(table, "generate_device_table");
  // An unconverged bias point (counted as gummel_unconverged) is returned
  // to this caller but never cached: a later run must retry it rather than
  // load the stale iterate forever.
  if (opts.use_cache && all_converged.load(std::memory_order_relaxed)) {
    save_table(table, path, payload);
    if (corrupt) metrics::add(metrics::Counter::kTableCacheCorruptReplaced);
  }
  return table;
}

}  // namespace gnrfet::device
