#pragma once
// The repo's one sanctioned synchronization layer: annotated wrappers
// over the std primitives, so every lock-protected invariant in the
// concurrent subsystems (campaign telemetry, result cache, serve
// daemon, service metrics, flight recorder, logs) is checked at
// compile time by Clang's -Wthread-safety analysis (`cmake
// -DTHREAD_SAFETY=ON`) instead of only at runtime by the TSan CI job.
//
// Raw std::mutex / std::lock_guard / std::unique_lock /
// std::condition_variable outside src/concurrency/ are findings under
// the adhoc_lint `raw-sync` rule — concurrency goes through:
//
//   conc::Mutex      a std::mutex carrying a CAPABILITY attribute, a
//                    lock rank, and a diagnostic name
//   conc::MutexLock  SCOPED_CAPABILITY RAII lock (the only way code
//                    outside this directory acquires a conc::Mutex)
//   conc::CondVar    condition variable waiting on a MutexLock
//
// Lock-rank discipline (the runtime complement of the static
// analysis): every Mutex declares a LockRank, and a thread may only
// acquire a mutex whose rank is strictly greater than the rank of
// every mutex it already holds. Acquiring out of order — including
// relocking a held mutex — aborts immediately, printing both mutex
// names, instead of deadlocking sometime later under load. The check
// is on in debug builds (!NDEBUG) and switchable at runtime either way
// via set_lock_rank_check_enabled(); release builds default it off so
// the service hot path pays nothing. The rank table lives in DESIGN.md
// §"Lock hierarchy".

#include <chrono>
// The std sync headers are legal here and only here (raw-sync rule).
#include <condition_variable>
#include <mutex>

#include "concurrency/annotations.hpp"

namespace adhoc::conc {

/// The repo-wide lock hierarchy: a thread acquires strictly ascending
/// ranks. Keep in sync with the DESIGN.md table; gaps are deliberate
/// room for future mutexes.
enum class LockRank : int {
  kServeConnections = 10,   ///< serve::Server::conn_mutex_
  kServiceMetrics = 20,     ///< obs::svc::ServiceMetrics::mutex_
  kResultCache = 30,        ///< cache::ResultCache::mutex_ (taken under
                            ///< kServiceMetrics by snapshot probes)
  kFlightRecorder = 40,     ///< obs::svc::FlightRecorder::mutex_
  kServiceLog = 50,         ///< obs::svc::Logger::mutex_ (taken under
                            ///< kServeConnections by the drain path)
  kCampaignTelemetry = 60,  ///< campaign::JsonlSink::mutex_
};

/// Toggle the lock-rank check at runtime (tests force it on so the
/// death test fires in release builds too). Returns the previous
/// setting.
bool set_lock_rank_check_enabled(bool enabled) noexcept;
[[nodiscard]] bool lock_rank_check_enabled() noexcept;

/// An annotated mutex. Non-recursive; acquire via conc::MutexLock.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex(LockRank rank, const char* name) noexcept : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE();
  void unlock() RELEASE();
  /// Acquires iff it returns true. Rank-checked like lock().
  [[nodiscard]] bool try_lock() TRY_ACQUIRE(true);

  [[nodiscard]] LockRank rank() const noexcept { return rank_; }
  [[nodiscard]] const char* name() const noexcept { return name_; }

 private:
  friend class CondVar;

  /// Rank bookkeeping, split out so CondVar can release/re-acquire the
  /// capability around a wait without unbalancing the held-lock stack.
  void note_acquired() noexcept;
  void note_released() noexcept;
  /// Aborts (printing both names) when acquiring would violate the
  /// rank order against any mutex the calling thread already holds.
  void check_rank_order() const noexcept;

  std::mutex m_;
  LockRank rank_;
  const char* name_;
};

/// RAII scoped lock over a conc::Mutex — the SCOPED_CAPABILITY shape
/// Clang's analysis tracks through a scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) { mutex.lock(); }
  ~MutexLock() RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mutex_;
};

/// Condition variable bound to conc::MutexLock. Waits release and
/// re-acquire the lock's mutex (rank bookkeeping included), exactly
/// like std::condition_variable over a std::unique_lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible, as usual).
  void wait(MutexLock& lock);

  /// Blocks until pred() holds. NO_THREAD_SAFETY_ANALYSIS: the
  /// analysis cannot see that `lock` is held across the pred() calls;
  /// annotate the predicate itself with REQUIRES(mutex) so *its* body
  /// stays checked.
  template <typename Pred>
  void wait(MutexLock& lock, Pred pred) NO_THREAD_SAFETY_ANALYSIS {
    while (!pred()) wait(lock);
  }

  /// Waits up to `rel`; std::cv_status::timeout when the time elapsed
  /// without a (possibly spurious) wakeup.
  std::cv_status wait_for(MutexLock& lock, std::chrono::milliseconds rel);

  /// Waits until pred() holds or `rel` elapses; returns pred()'s final
  /// value. Same analysis caveat as the untimed predicate overload.
  template <typename Pred>
  bool wait_for(MutexLock& lock, std::chrono::milliseconds rel,
                Pred pred) NO_THREAD_SAFETY_ANALYSIS {
    // Host-time deadline: timed waits are inherently wall-clock and
    // feed no simulation state or artifact.
    const auto deadline = std::chrono::steady_clock::now() + rel;  // NOLINT-ADHOC(wall-clock)
    while (!pred()) {
      if (wait_until(lock, deadline) == std::cv_status::timeout) return pred();
    }
    return true;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::cv_status wait_until(MutexLock& lock,
                            std::chrono::steady_clock::time_point deadline);  // NOLINT-ADHOC(wall-clock)

  std::condition_variable cv_;
};

}  // namespace adhoc::conc
