#ifndef CDBTUNE_UTIL_MUTEX_H_
#define CDBTUNE_UTIL_MUTEX_H_

// The one sanctioned home of raw standard-library and pthread
// synchronization: every other file in src/ must use util::Mutex /
// util::MutexLock / util::CondVar or util::SharedMutex / util::ReaderLock /
// util::WriterLock (the lint `raw-mutex` rule enforces this), so the
// thread-safety annotations and the lock-rank detector see every lock in
// the process.

#include <pthread.h>

#include <condition_variable>
#include <mutex>

#include "util/check.h"
#include "util/thread_annotations.h"

namespace cdbtune::util {

/// Lock-rank registry (DESIGN.md "Lock discipline"). Locks must be acquired
/// in strictly ascending rank order; two mutexes of equal rank may never be
/// held together. In CDBTUNE_DCHECK builds (Debug, or -DCDBTUNE_DCHECK=ON —
/// the whole sanitizer matrix) every acquire is checked against the calling
/// thread's held-lock list and an out-of-order or re-entrant acquire aborts
/// with both the offending mutex and the full held list; release builds
/// compile the checks out entirely (Lock() is exactly std::mutex::lock()).
namespace lock_rank {
/// TCP front end (net::TcpServer::mu_): dispatch work queue, lifecycle
/// flags, transport telemetry. The outermost lock — workers pop a request,
/// release, then call into the tuning server below it.
inline constexpr int kNetFrontEnd = 110;
/// net::EventLoop::tasks_mu_: the cross-thread task queue. Held only for
/// the push/swap — queued tasks always run lock-free on the loop thread —
/// but ranked below the server locks because workers post completions
/// after (never while) holding them.
inline constexpr int kNetLoopTasks = 120;
/// TuningServer::mu_: session registry, shard free list, round/exclusivity
/// state.
inline constexpr int kServerSessions = 200;
/// TuningServer::agent_mu_: the shared model, a SharedMutex — policy
/// inference holds it shared, weight updates exclusive. Nested inside mu_
/// on the restore-commit path, never the other way around.
inline constexpr int kServerAgent = 300;
/// ThreadPool::mu_: the compute pool's task queue. Above the server locks
/// because inference and training hold agent_mu_ across
/// ParallelFor/RunConcurrent.
inline constexpr int kThreadPool = 800;
/// BlockingCounter::mu_: fork/join countdown, waited on after submitting.
inline constexpr int kBlockingCounter = 810;
/// Default for utility mutexes with no declared ordering: innermost except
/// for the log sink, so an unranked lock can be taken while holding any
/// ranked one but never alongside another unranked lock.
inline constexpr int kLeaf = 900;
/// The logging sink: the absolute innermost, so logging is legal while
/// holding any other lock in the repo.
inline constexpr int kLogSink = 1000;
}  // namespace lock_rank

namespace internal {

/// Rank and name of a util::Mutex or util::SharedMutex, plus the debug-mode
/// checks both feed. The two kinds share one per-thread held-lock list, so
/// the rank order spans them: a shared acquire is checked exactly like an
/// exclusive one (a re-entrant shared acquire blocks forever once a writer
/// queues between the two, so it dies too).
class RankedLock {
 public:
  RankedLock(const RankedLock&) = delete;
  RankedLock& operator=(const RankedLock&) = delete;

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 protected:
  RankedLock(int rank, const char* name) : rank_(rank), name_(name) {}
  ~RankedLock() = default;

  // The detector's hooks (mutex.cc). Without CDBTUNE_DCHECK they are empty
  // inline bodies, so a release build locks exactly like the std types.
#if CDBTUNE_DCHECK_ENABLED
  void DebugCheckAcquire() const;
  void DebugNoteAcquired() const;
  void DebugNoteReleased() const;
  void DebugAssertHeld() const;
  void DebugCheckWaitPrecondition() const;
#else
  void DebugCheckAcquire() const {}
  void DebugNoteAcquired() const {}
  void DebugNoteReleased() const {}
  void DebugAssertHeld() const {}
  void DebugCheckWaitPrecondition() const {}
#endif

 private:
  const int rank_;
  const char* const name_;
};

}  // namespace internal

/// Annotated std::mutex wrapper with a debug-mode lock-rank deadlock
/// detector. Non-recursive; not copyable or movable (guarded members name
/// their mutex in annotations, so its address is part of the protocol).
class CDBTUNE_CAPABILITY("mutex") Mutex : public internal::RankedLock {
 public:
  explicit Mutex(int rank = lock_rank::kLeaf, const char* name = "Mutex")
      : RankedLock(rank, name) {}

  void Lock() CDBTUNE_ACQUIRE() {
    DebugCheckAcquire();
    mu_.lock();
    DebugNoteAcquired();
  }

  void Unlock() CDBTUNE_RELEASE() {
    DebugNoteReleased();
    mu_.unlock();
  }

  /// Non-blocking acquire. A successful try must still respect the rank
  /// order — a trylock cannot deadlock by itself, but an out-of-order one
  /// means the caller's mental model of the hierarchy is wrong.
  bool TryLock() CDBTUNE_TRY_ACQUIRE(true) {
    DebugCheckAcquire();
    if (!mu_.try_lock()) return false;
    DebugNoteAcquired();
    return true;
  }

  /// Dies in debug builds unless the calling thread holds this mutex; tells
  /// the static analysis to treat it as held from here on.
  void AssertHeld() const CDBTUNE_ASSERT_CAPABILITY(this) {
    DebugAssertHeld();
  }

 private:
  friend class CondVar;

  std::mutex mu_;
};

/// RAII lock for util::Mutex — the only way the repo takes a lock outside
/// explicit Lock/Unlock pairs in the wait loops.
class CDBTUNE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CDBTUNE_ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }
  ~MutexLock() CDBTUNE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Annotated reader/writer lock: any number of readers or one writer, under
/// the same rank discipline as Mutex. Writer-preferring: once a writer
/// waits, new readers queue behind it, so a steady stream of overlapping
/// readers cannot starve a weight update (std::shared_mutex is glibc's
/// reader-preferring rwlock, which can). Not recursive in either mode, and
/// no upgrade — a reader that needs to write releases and re-acquires.
class CDBTUNE_CAPABILITY("mutex") SharedMutex : public internal::RankedLock {
 public:
  explicit SharedMutex(int rank = lock_rank::kLeaf,
                       const char* name = "SharedMutex");
  ~SharedMutex();

  void Lock() CDBTUNE_ACQUIRE() {
    DebugCheckAcquire();
    CDBTUNE_CHECK(pthread_rwlock_wrlock(&mu_) == 0);
    DebugNoteAcquired();
  }

  void Unlock() CDBTUNE_RELEASE() {
    DebugNoteReleased();
    pthread_rwlock_unlock(&mu_);
  }

  void LockShared() CDBTUNE_ACQUIRE_SHARED() {
    DebugCheckAcquire();
    CDBTUNE_CHECK(pthread_rwlock_rdlock(&mu_) == 0);
    DebugNoteAcquired();
  }

  void UnlockShared() CDBTUNE_RELEASE_SHARED() {
    DebugNoteReleased();
    pthread_rwlock_unlock(&mu_);
  }

 private:
  pthread_rwlock_t mu_;
};

/// RAII exclusive lock for util::SharedMutex.
class CDBTUNE_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) CDBTUNE_ACQUIRE(mu) : mu_(&mu) {
    mu_->Lock();
  }
  ~WriterLock() CDBTUNE_RELEASE() { mu_->Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII shared lock for util::SharedMutex.
class CDBTUNE_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) CDBTUNE_ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu_->LockShared();
  }
  ~ReaderLock() CDBTUNE_RELEASE() { mu_->UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable bound to util::Mutex. There is deliberately no
/// predicate overload: a predicate lambda is analyzed as a separate function
/// by the thread-safety pass and its guarded reads would be invisible to the
/// REQUIRES contract. Write the loop out instead, so every guarded read sits
/// in a scope the analysis can see:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before
  /// returning. Debug builds die if the caller does not hold `mu` (the
  /// classic wait-without-lock bug) and rank-check the reacquisition
  /// against locks still held across the wait.
  void Wait(Mutex& mu) CDBTUNE_REQUIRES(mu);

  void NotifyOne();
  void NotifyAll();

 private:
  std::condition_variable cv_;
};

}  // namespace cdbtune::util

#endif  // CDBTUNE_UTIL_MUTEX_H_
