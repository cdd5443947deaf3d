#include "common/trace.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/annotations.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"

namespace gnrfet::trace {

namespace {

/// One recorded span; category and name point at string literals.
struct Event {
  const char* cat = nullptr;
  const char* name = nullptr;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

struct Buffer {
  uint32_t tid = 0;
  std::vector<Event> events;
};

struct Registry {
  Registry()
      : epoch(std::chrono::steady_clock::now()),
        path(common::env_or("GNRFET_TRACE", "")) {
    recording.store(!path.empty(), std::memory_order_relaxed);
  }

  std::chrono::steady_clock::time_point epoch;
  common::Mutex mu;
  std::vector<std::shared_ptr<Buffer>> buffers GNRFET_GUARDED_BY(mu);
  std::string path GNRFET_GUARDED_BY(mu);
  std::atomic<bool> recording{false};
  uint32_t next_tid GNRFET_GUARDED_BY(mu) = 0;
};

Registry& registry() {
  // Intentionally immortal (never destroyed): the at-exit flusher and
  // late-exiting threads may touch the registry during static destruction,
  // whose cross-TU order is unspecified.
  static Registry* r = new Registry;
  return *r;
}

/// Flushes at process exit. Ordered after the registry singleton so its
/// destructor runs first, while the registry is still alive.
struct AtExitFlusher {
  ~AtExitFlusher() { flush(); }
};

void ensure_exit_flush() {
  static AtExitFlusher flusher;
  (void)flusher;
}

/// The calling thread's event buffer, registered once under the registry
/// mutex. Shared ownership keeps a buffer mergeable after its thread
/// exits. The hot path (Span destructor push) touches no lock.
Buffer& local_buffer() {
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto b = std::make_shared<Buffer>();
    Registry& r = registry();
    common::MutexLock lk(r.mu);
    b->tid = r.next_tid++;
    r.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void escape_json(std::string_view s, std::ostream& os) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

bool enabled() { return registry().recording.load(std::memory_order_relaxed); }

std::string output_path() {
  Registry& r = registry();
  common::MutexLock lk(r.mu);
  return r.path;
}

void set_output_path(const std::string& path) {
  ensure_exit_flush();
  Registry& r = registry();
  common::MutexLock lk(r.mu);
  r.path = path;
  r.recording.store(!path.empty(), std::memory_order_relaxed);
}

double now_us() {
  const auto dt = std::chrono::steady_clock::now() - registry().epoch;
  return std::chrono::duration<double, std::micro>(dt).count();
}

Span::Span(const char* category, const char* name)
    : category_(category), name_(name), begin_us_(0.0), active_(enabled()) {
  if (active_) {
    ensure_exit_flush();
    begin_us_ = now_us();
  }
}

Span::~Span() {
  if (!active_) return;
  const double end_us = now_us();
  local_buffer().events.push_back(Event{category_, name_, begin_us_, end_us - begin_us_});
}

size_t event_count() {
  Registry& r = registry();
  common::MutexLock lk(r.mu);
  size_t n = 0;
  for (const auto& b : r.buffers) n += b->events.size();
  return n;
}

std::vector<EventRecord> snapshot_events() {
  Registry& r = registry();
  common::MutexLock lk(r.mu);
  std::vector<EventRecord> out;
  for (const auto& b : r.buffers) {
    for (const Event& e : b->events) {
      EventRecord rec;
      rec.category = e.cat;
      rec.name = e.name;
      rec.ts_us = e.ts_us;
      rec.dur_us = e.dur_us;
      rec.tid = b->tid;
      out.push_back(std::move(rec));
    }
  }
  return out;
}

void write_json(std::ostream& os) {
  const metrics::Snapshot snap = metrics::snapshot();
  Registry& r = registry();
  common::MutexLock lk(r.mu);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& b : r.buffers) {
    for (const Event& e : b->events) {
      if (!first) os << ",";
      first = false;
      os << "\n{\"name\":\"";
      escape_json(e.name, os);
      os << "\",\"cat\":\"";
      escape_json(e.cat, os);
      os << "\",\"ph\":\"X\",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
         << ",\"pid\":1,\"tid\":" << b->tid << "}";
    }
  }
  os << "\n],\n\"gnrfetCounters\":{";
  for (size_t c = 0; c < metrics::kNumCounters; ++c) {
    if (c) os << ",";
    os << "\n\"" << metrics::counter_name(static_cast<metrics::Counter>(c))
       << "\":" << snap.counters[c];
  }
  os << "\n},\n\"gnrfetHistograms\":{";
  for (size_t h = 0; h < metrics::kNumHistograms; ++h) {
    const metrics::HistogramData& hd = snap.histograms[h];
    if (h) os << ",";
    os << "\n\"" << metrics::histogram_name(static_cast<metrics::Histogram>(h))
       << "\":{\"count\":" << hd.count << ",\"sum\":" << hd.sum << ",\"min\":" << hd.min
       << ",\"max\":" << hd.max << ",\"buckets\":[";
    bool first_bucket = true;
    for (size_t b = 0; b < metrics::kHistogramBuckets; ++b) {
      if (hd.buckets[b] == 0) continue;
      if (!first_bucket) os << ",";
      first_bucket = false;
      os << "[" << metrics::bucket_lower_bound(b) << "," << hd.buckets[b] << "]";
    }
    os << "]}";
  }
  os << "\n}\n}\n";
}

std::string to_json() {
  std::ostringstream os;
  os.precision(12);
  write_json(os);
  return os.str();
}

void flush() {
  std::string path;
  {
    Registry& r = registry();
    common::MutexLock lk(r.mu);
    path = r.path;
    size_t n = 0;
    for (const auto& b : r.buffers) n += b->events.size();
    if (path.empty() || n == 0) return;
  }
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  std::ofstream out(path);
  if (out) {
    out.precision(12);
    write_json(out);
  }
  clear();
}

void clear() {
  Registry& r = registry();
  common::MutexLock lk(r.mu);
  for (const auto& b : r.buffers) b->events.clear();
}

}  // namespace gnrfet::trace
