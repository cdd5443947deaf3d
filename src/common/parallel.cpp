#include "common/parallel.hpp"

#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common/annotations.hpp"
#include "common/env.hpp"

namespace gnrfet::par {

namespace {

/// One parallel region. Chunks are pre-partitioned into per-participant
/// ranges; a participant first drains its own range, then steals from the
/// tail of the busiest-looking victim. Claiming is lock-free; everything
/// that touches the job's lifetime goes through the pool mutex.
struct Job {
  const std::function<void(size_t, size_t, size_t)>* body = nullptr;
  size_t n = 0;
  size_t grain = 1;
  size_t nchunks = 0;
  size_t participants = 0;

  struct alignas(64) Cursor {
    std::atomic<size_t> next{0};
    size_t end = 0;
  };
  std::vector<Cursor> cursors;  // one per participant

  std::atomic<bool> abort{false};
  common::Mutex error_mu;
  std::exception_ptr error GNRFET_GUARDED_BY(error_mu);

  void init(size_t n_items, size_t grain_items, size_t nparticipants) {
    n = n_items;
    grain = grain_items;
    nchunks = num_chunks(n, grain);
    participants = nparticipants < nchunks ? nparticipants : nchunks;
    if (participants == 0) participants = 1;
    cursors = std::vector<Cursor>(participants);
    for (size_t p = 0; p < participants; ++p) {
      cursors[p].next.store(p * nchunks / participants, std::memory_order_relaxed);
      cursors[p].end = (p + 1) * nchunks / participants;
    }
  }

  /// Claim one chunk, preferring slot `home`; returns nchunks when drained.
  size_t claim(size_t home) {
    for (size_t k = 0; k < participants; ++k) {
      Cursor& c = cursors[(home + k) % participants];
      const size_t got = c.next.fetch_add(1, std::memory_order_relaxed);
      if (got < c.end) return got;
    }
    return nchunks;
  }

  void run_chunk(size_t chunk) {
    if (abort.load(std::memory_order_relaxed)) return;
    try {
      const size_t begin = chunk * grain;
      const size_t end = begin + grain < n ? begin + grain : n;
      (*body)(chunk, begin, end);
    } catch (...) {
      common::MutexLock lk(error_mu);
      if (!error) error = std::current_exception();
      abort.store(true, std::memory_order_relaxed);
    }
  }

  void work(size_t home) {
    for (size_t chunk = claim(home); chunk < nchunks; chunk = claim(home)) {
      run_chunk(chunk);
    }
  }

  /// The first chunk exception, if any. Called after the region drained;
  /// the lock is for the analysis (and late-aborting stragglers).
  std::exception_ptr take_error() {
    common::MutexLock lk(error_mu);
    return error;
  }
};

thread_local bool t_in_worker = false;

/// Marks the current thread as inside a parallel region for a scope, so
/// nested parallel_for calls run inline instead of re-entering the pool.
struct InRegionGuard {
  bool old = t_in_worker;
  InRegionGuard() { t_in_worker = true; }
  ~InRegionGuard() { t_in_worker = old; }
};

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  int threads() {
    common::MutexLock lk(mu_);
    return target_threads_;
  }

  void set_threads(int n) {
    common::MutexLock lk(mu_);
    if (job_) throw std::logic_error("par::set_thread_count: parallel region active");
    target_threads_ = n < 1 ? 1 : n;
    ensure_workers();
  }

  void run(Job& job) {
    // Only one top-level region may be live at a time: job_/active_ track a
    // single job, so a second concurrent caller must not overwrite them. A
    // loser of the race runs its region inline on its own thread instead of
    // blocking — blocking here could deadlock if the winner's job body
    // waits on a lock the loser holds.
    if (!run_mu_.try_lock()) {
      job.init(job.n, job.grain, 1);
      InRegionGuard in_region;
      job.work(0);
      if (std::exception_ptr err = job.take_error()) std::rethrow_exception(err);
      return;
    }

    {
      common::MutexLock lk(mu_);
      job.init(job.n, job.grain, static_cast<size_t>(target_threads_));
      job_ = &job;
      ++epoch_;
    }
    wake_cv_.notify_all();

    // The caller is participant 0 and helps until the job drains. It is
    // marked in-region for the duration so a nested parallel_for in the job
    // body (e.g. lazy NEGF table generation reached from a sample) runs
    // inline instead of re-entering run() and waiting on workers that may
    // in turn be blocked on a lock this thread holds.
    {
      InRegionGuard in_region;
      job.work(0);
    }

    // Detach the job so late-waking workers skip it, then wait for every
    // worker that did enter to leave before the job goes out of scope.
    {
      common::MutexLock lk(mu_);
      job_ = nullptr;
      while (active_ != 0) done_cv_.wait(mu_);
    }
    run_mu_.unlock();

    if (std::exception_ptr err = job.take_error()) std::rethrow_exception(err);
  }

 private:
  ThreadPool() {
    common::MutexLock lk(mu_);
    target_threads_ = resolve_env_threads();
    ensure_workers();
  }

  ~ThreadPool() {
    {
      common::MutexLock lk(mu_);
      stop_ = true;
    }
    wake_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  static int resolve_env_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return common::env::get_positive_int("GNRFET_THREADS", hw >= 1 ? static_cast<int>(hw) : 1);
  }

  void ensure_workers() GNRFET_REQUIRES(mu_) {
    // Participant 0 is the caller, so the pool carries threads - 1 workers.
    // A new worker starts from the epoch current at its spawn, not the one
    // it finds once it first takes mu_: a run() that bumps the epoch in
    // between must wake it, or it would sleep through that region.
    while (static_cast<int>(workers_.size()) < target_threads_ - 1) {
      const size_t slot = workers_.size() + 1;
      const uint64_t epoch = epoch_;
      workers_.emplace_back([this, slot, epoch] { worker_main(slot, epoch); });
    }
  }

  void worker_main(size_t slot, uint64_t seen) {
    t_in_worker = true;
    mu_.lock();
    while (true) {
      while (!(stop_ || epoch_ != seen)) wake_cv_.wait(mu_);
      if (stop_) {
        mu_.unlock();
        return;
      }
      seen = epoch_;
      Job* job = job_;
      if (!job || slot >= job->participants) continue;
      ++active_;
      mu_.unlock();
      job->work(slot);
      mu_.lock();
      if (--active_ == 0) done_cv_.notify_all();
    }
  }

  common::Mutex mu_;
  common::Mutex run_mu_;  ///< serializes top-level regions (see run())
  common::CondVar wake_cv_;
  common::CondVar done_cv_;
  /// Only grown (under mu_, in ensure_workers) and joined by the
  /// destructor after the stop_ handshake; not annotated because the
  /// joining loop intentionally runs unlocked.
  std::vector<std::thread> workers_;
  Job* job_ GNRFET_GUARDED_BY(mu_) = nullptr;
  uint64_t epoch_ GNRFET_GUARDED_BY(mu_) = 0;
  int active_ GNRFET_GUARDED_BY(mu_) = 0;
  int target_threads_ GNRFET_GUARDED_BY(mu_) = 1;
  bool stop_ GNRFET_GUARDED_BY(mu_) = false;
};

}  // namespace

int thread_count() { return ThreadPool::instance().threads(); }

void set_thread_count(int n) { ThreadPool::instance().set_threads(n); }

size_t num_chunks(size_t n, size_t grain) {
  if (grain == 0) grain = 1;
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

void parallel_for_chunks(size_t n, size_t grain,
                         const std::function<void(size_t, size_t, size_t)>& body) {
  if (grain == 0) grain = 1;
  const size_t chunks = num_chunks(n, grain);
  if (chunks == 0) return;
  // Serial path: one thread, a nested region, or a single chunk. Chunk
  // boundaries are identical to the threaded path, so results match it
  // bit for bit.
  if (chunks == 1 || t_in_worker || thread_count() == 1) {
    for (size_t c = 0; c < chunks; ++c) {
      const size_t begin = c * grain;
      const size_t end = begin + grain < n ? begin + grain : n;
      body(c, begin, end);
    }
    return;
  }
  Job job;
  job.body = &body;
  job.n = n;
  job.grain = grain;
  ThreadPool::instance().run(job);
}

void parallel_for(size_t n, const std::function<void(size_t)>& body) {
  parallel_for_chunks(n, 1, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) body(i);
  });
}

}  // namespace gnrfet::par
