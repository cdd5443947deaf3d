#include "service/tableservice.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <utility>

#include "common/cache.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace gnrfet::service {

namespace {

/// Advisory flock(2) on a sidecar file beside the cache entry, serializing
/// cold generation across *processes* sharing one cache directory (the
/// in-process side is handled by single-flight coalescing).
///
/// The sidecar is unlinked while the lock is still held, so the directory
/// does not accumulate stale .lock files. A waiter that acquired the lock
/// through the now-unlinked inode re-checks the cache entry on disk first
/// (the table file is always written before the unlink), so the worst case
/// of the unlink race is one redundant generation, never a wrong table.
///
/// Lock failures (unwritable directory, exotic filesystems) degrade to
/// uncoordinated generation: both processes write the same bit-exact table
/// through the atomic rename in device::save_table.
class FileLock {
 public:
  explicit FileLock(const std::string& path) : path_(path) {
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) return;
    while (::flock(fd_, LOCK_EX) != 0) {
      if (errno != EINTR) {
        ::close(fd_);
        fd_ = -1;
        return;
      }
    }
  }

  ~FileLock() {
    if (fd_ < 0) return;
    ::unlink(path_.c_str());
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  std::string path_;
  int fd_ = -1;
};

}  // namespace

TableService::TableService(Generator generator)
    : generator_(generator ? std::move(generator) : Generator(&device::generate_device_table)) {}

TableService& TableService::shared() {
  static TableService instance;
  return instance;
}

std::shared_ptr<const device::DeviceTable> TableService::query(const TableRequest& request) {
  trace::Span span("service", "query");
  const std::string key = device::table_cache_payload(request.spec, request.opts);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    common::MutexLock lk(mu_);
    const auto hit = entries_.find(key);
    if (hit != entries_.end()) {
      ++stats_.hits;
      metrics::add(metrics::Counter::kTableServiceHits);
      return hit->second;
    }
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;
      ++stats_.coalesced;
      metrics::add(metrics::Counter::kTableServiceCoalesced);
    } else {
      flight = std::make_shared<Flight>();
      inflight_.emplace(key, flight);
      leader = true;
      ++stats_.misses;
      metrics::add(metrics::Counter::kTableServiceMisses);
    }
  }

  if (!leader) {
    trace::Span wait_span("service", "coalesce_wait");
    common::MutexLock lk(flight->mu);
    while (!flight->done) flight->cv.wait(flight->mu);
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->table;
  }

  std::shared_ptr<const device::DeviceTable> table;
  std::exception_ptr error;
  try {
    table = resolve_cold(key, request);
  } catch (...) {
    error = std::current_exception();
  }
  {
    common::MutexLock lk(mu_);
    // emplace keeps a resident entry (a clear()-vs-leader race); both are
    // bit-identical by construction.
    if (table) entries_.emplace(key, table);
    inflight_.erase(key);
  }
  {
    common::MutexLock lk(flight->mu);
    flight->done = true;
    flight->table = table;
    flight->error = error;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return table;
}

std::shared_ptr<const device::DeviceTable> TableService::resolve_cold(
    const std::string& key, const TableRequest& request) {
  trace::Span span("service", "resolve_cold");
  if (request.opts.use_cache) {
    const std::string path = cache::path_for("device-table", key);
    FileLock lock(path + ".lock");
    // Another process may have finished the same generation while we
    // waited on the lockfile: its table is on disk now, load it directly.
    if (cache::exists(path)) {
      metrics::add(metrics::Counter::kTableCacheHits);
      return std::make_shared<const device::DeviceTable>(device::load_table(path));
    }
    return std::make_shared<const device::DeviceTable>(generator_(request.spec, request.opts));
  }
  return std::make_shared<const device::DeviceTable>(generator_(request.spec, request.opts));
}

TableService::Stats TableService::stats() const {
  common::MutexLock lk(mu_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

void TableService::clear() {
  common::MutexLock lk(mu_);
  entries_.clear();
}

}  // namespace gnrfet::service
