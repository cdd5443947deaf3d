#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/annotations.hpp"
#include "device/tablegen.hpp"

/// The in-process store of device tables. Every consumer of
/// I_D(V_G,V_D)/Q(V_G,V_D) tables — the DesignKit, the Monte Carlo /
/// contour / latch pipelines, the benches — funnels through one
/// TableService, which fronts device::generate_device_table and its
/// on-disk cache (common/cache.hpp) with:
///
///   - an in-memory memo keyed on table_cache_payload() (shared, immutable
///     entries; the working set is about a dozen ~5 KB tables, so nothing
///     is ever evicted),
///   - single-flight request coalescing: concurrent callers asking for the
///     same cold variant share one generation, and a flock(2) lockfile
///     beside the cache path keeps two processes sharing data/cache from
///     duplicating minutes of generation work.
namespace gnrfet::service {

/// One device-table query: which device variant, on which bias grid.
struct TableRequest {
  device::DeviceSpec spec;
  device::TableGenOptions opts;
};

class TableService {
 public:
  /// Generation hook; defaults to device::generate_device_table. Tests
  /// inject cheap generators here to drive the memo / coalescing machinery
  /// without the NEGF pipeline.
  using Generator =
      std::function<device::DeviceTable(const device::DeviceSpec&, const device::TableGenOptions&)>;

  /// Service-local counters (mirrored into the global metrics registry as
  /// table_service_hits / _misses / _coalesced).
  struct Stats {
    uint64_t hits = 0;       ///< answered from the in-memory memo
    uint64_t misses = 0;     ///< led a cold resolution (disk load or generation)
    uint64_t coalesced = 0;  ///< cold queries that joined an in-flight generation
    size_t entries = 0;      ///< current memo size
  };

  /// An empty `generator` means device::generate_device_table.
  explicit TableService(Generator generator = {});

  /// Resolve one request: memo hit, join of an in-flight generation, disk
  /// load, or cold generation — in that order. Blocks until the table is
  /// available; rethrows the leader's exception to every coalesced caller.
  std::shared_ptr<const device::DeviceTable> query(const TableRequest& request);

  Stats stats() const;

  /// Drop every memo entry (benches/tests; outstanding shared_ptrs stay
  /// valid). In-flight generations are unaffected.
  void clear();

  /// Process-wide default instance shared by every DesignKit: in-process
  /// consumers coalesce onto one memo and one generation per variant.
  static TableService& shared();

 private:
  /// One in-flight cold resolution; coalesced callers block on cv until the
  /// leader publishes the table (or its failure).
  struct Flight {
    common::Mutex mu;
    common::CondVar cv;
    bool done GNRFET_GUARDED_BY(mu) = false;
    std::shared_ptr<const device::DeviceTable> table GNRFET_GUARDED_BY(mu);
    std::exception_ptr error GNRFET_GUARDED_BY(mu);
  };

  /// The leader's cold path: disk load or generation, under the
  /// cross-process lockfile when the request is cached.
  std::shared_ptr<const device::DeviceTable> resolve_cold(const std::string& key,
                                                          const TableRequest& request);

  Generator generator_;

  mutable common::Mutex mu_;
  std::map<std::string, std::shared_ptr<const device::DeviceTable>> entries_
      GNRFET_GUARDED_BY(mu_);
  std::map<std::string, std::shared_ptr<Flight>> inflight_ GNRFET_GUARDED_BY(mu_);
  Stats stats_ GNRFET_GUARDED_BY(mu_);
};

}  // namespace gnrfet::service
