#pragma once

#include <condition_variable>
#include <mutex>

/// Clang thread-safety capability annotations and the annotated sync
/// primitives the codebase locks with.
///
/// Under clang, building with -Wthread-safety (CI: the `thread-safety`
/// stage, -DGNRFET_THREAD_SAFETY=ON, which adds -Werror=thread-safety)
/// statically proves that every GNRFET_GUARDED_BY member is only touched
/// with its mutex held and that every GNRFET_REQUIRES function is only
/// called under the right lock. On other compilers the macros expand to
/// nothing and the wrappers are zero-cost shims over the std primitives.
///
/// The std lock types are not capability-annotated (libstdc++ carries no
/// annotations), so annotated code locks through the wrappers below:
///
///   common::Mutex      annotated std::mutex (lock/unlock/try_lock)
///   common::MutexLock  scoped lock of a Mutex (the std::lock_guard shape)
///   common::CondVar    condition variable waitable on a Mutex; waits are
///                      written as explicit `while (!pred) cv.wait(mu);`
///                      loops so the predicate reads are visibly under the
///                      lock (lambda predicates would be analyzed as
///                      lock-free functions and rejected)
///
/// Deployed on the real shared state of the pipeline: the thread pool's
/// run/registration mutexes (common/parallel.cpp), the DesignKit table
/// cache (explore/tech_explore.hpp), the trace and metrics registries
/// (common/trace.cpp, common/metrics.cpp), and the cache-directory
/// once-init (common/cache.cpp).
#if defined(__clang__)
#define GNRFET_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GNRFET_THREAD_ANNOTATION(x)
#endif

/// A type that is a lockable capability (mutexes).
#define GNRFET_CAPABILITY(x) GNRFET_THREAD_ANNOTATION(capability(x))
/// An RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define GNRFET_SCOPED_CAPABILITY GNRFET_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only with the capability held.
#define GNRFET_GUARDED_BY(x) GNRFET_THREAD_ANNOTATION(guarded_by(x))
/// Function callable only with the capability already held.
#define GNRFET_REQUIRES(...) GNRFET_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function that acquires the capability (held on return, not on entry).
#define GNRFET_ACQUIRE(...) GNRFET_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function that attempts the acquisition; first argument is the return
/// value meaning success.
#define GNRFET_TRY_ACQUIRE(...) GNRFET_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Function that releases the capability (held on entry, not on return).
#define GNRFET_RELEASE(...) GNRFET_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

namespace gnrfet::common {

/// std::mutex with capability annotations.
class GNRFET_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GNRFET_ACQUIRE() { m_.lock(); }
  void unlock() GNRFET_RELEASE() { m_.unlock(); }
  bool try_lock() GNRFET_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

/// Scoped lock of a Mutex (std::lock_guard shape, analysis-visible).
class GNRFET_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GNRFET_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() GNRFET_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable waitable directly on a Mutex. wait() releases and
/// reacquires the mutex internally (std::condition_variable_any), so from
/// the caller's — and the analysis's — point of view the capability is
/// held across the call. Write waits as explicit loops:
///
///   while (!ready_) cv_.wait(mu_);   // ready_ GNRFET_GUARDED_BY(mu_)
class CondVar {
 public:
  void wait(Mutex& mu) GNRFET_REQUIRES(mu) { cv_.wait(mu); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace gnrfet::common
