// Proves the lock discipline actually bites: functional coverage of
// util::Mutex / util::MutexLock / util::CondVar and util::SharedMutex /
// util::ReaderLock / util::WriterLock, and — in CDBTUNE_DCHECK builds
// (Debug, and the whole sanitizer matrix) — death tests for every way the
// lock-rank detector is supposed to kill a misbehaving thread: out-of-order
// acquire (exclusive or shared), equal-rank acquire, self-deadlock
// (including a re-entrant shared acquire and a reader-to-writer upgrade),
// unlocking a mutex the thread does not hold, and CondVar::Wait without the
// lock.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/mutex.h"

namespace cdbtune::util {
namespace {

// --- Functional behavior (all build modes) -------------------------------

TEST(MutexTest, LockUnlockRoundTrip) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  mu.Lock();
  mu.Unlock();
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  std::thread contender([&] { EXPECT_FALSE(mu.TryLock()); });
  contender.join();
  mu.Unlock();
}

TEST(MutexTest, AscendingRanksNest) {
  Mutex outer(lock_rank::kNetFrontEnd, "outer");
  Mutex middle(lock_rank::kServerSessions, "middle");
  Mutex inner(lock_rank::kLogSink, "inner");
  MutexLock a(outer);
  MutexLock b(middle);
  MutexLock c(inner);
}

TEST(MutexTest, OutOfLifoReleaseIsLegal) {
  // The hierarchy constrains acquisition order only; releasing the outer
  // lock first (hand-over-hand) must not confuse the held-lock bookkeeping.
  Mutex outer(lock_rank::kServerSessions, "outer");
  Mutex inner(lock_rank::kServerAgent, "inner");
  outer.Lock();
  inner.Lock();
  outer.Unlock();
  // With only `inner` held, a lock ranked above it must still be admissible.
  Mutex next(lock_rank::kThreadPool, "next");
  next.Lock();
  next.Unlock();
  inner.Unlock();
}

TEST(MutexTest, RankAndNameAccessors) {
  Mutex mu(lock_rank::kThreadPool, "pool");
  EXPECT_EQ(mu.rank(), lock_rank::kThreadPool);
  EXPECT_STREQ(mu.name(), "pool");
}

TEST(CondVarTest, NotifyWakesWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
  }
  waker.join();
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int awake = 0;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      ++awake;
    });
  }
  {
    MutexLock lock(mu);
    go = true;
    cv.NotifyAll();
  }
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(awake, 4);
}

TEST(CondVarTest, WaitReleasesTheMutexWhileBlocked) {
  Mutex mu;
  CondVar cv;
  bool woken = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!woken) cv.Wait(mu);
  });
  // If Wait failed to release mu this Lock would deadlock the test; the
  // waiter can only be woken by a notifier that takes the lock itself.
  for (;;) {
    MutexLock lock(mu);
    woken = true;
    cv.NotifyOne();
    break;
  }
  waiter.join();
}

TEST(SharedMutexTest, ReadersHoldTogether) {
  SharedMutex mu(lock_rank::kServerAgent, "model");
  ReaderLock outer(mu);
  // If shared mode excluded other readers, this join would deadlock.
  bool entered = false;
  std::thread reader([&] {
    ReaderLock inner(mu);
    entered = true;
  });
  reader.join();
  EXPECT_TRUE(entered);
}

TEST(SharedMutexTest, WritersExcludeReadersAndEachOther) {
  // Writers keep two counters equal inside their critical section only;
  // a reader that ever saw them differ (or TSan seeing a race) means a
  // reader overlapped a writer or two writers overlapped.
  SharedMutex mu(lock_rank::kServerAgent, "model");
  int a = 0;
  int b = 0;
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        WriterLock lock(mu);
        ++a;
        ++b;
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        ReaderLock lock(mu);
        if (a != b) torn.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(a, 4000);
  EXPECT_EQ(b, 4000);
}

TEST(SharedMutexTest, WaitingWriterIsNotStarvedByOverlappingReaders) {
  // Two readers hand the lock back and forth so that it is never free: a
  // reader releases only on its turn and while the other one holds it. A
  // reader-preferring lock (glibc's default rwlock, which std::shared_mutex
  // wraps) keeps admitting them and the writer never gets in. A
  // writer-preferring one queues the next re-acquire behind the writer; the
  // reader still inside then gives up waiting for its partner and lets the
  // writer through.
  SharedMutex mu(lock_rank::kServerAgent, "model");
  std::atomic<bool> holding[2] = {false, false};
  std::atomic<int> turn{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&, i] {
      while (!stop.load()) {
        ReaderLock lock(mu);
        holding[i].store(true);
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
        while (!(turn.load() == i && holding[1 - i].load()) && !stop.load() &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
        holding[i].store(false);
        turn.store(1 - i);
      }
    });
  }
  std::atomic<bool> written{false};
  std::thread writer([&] {
    WriterLock lock(mu);
    written.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!written.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool written_in_time = written.load();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  writer.join();
  EXPECT_TRUE(written_in_time) << "writer starved by overlapping readers";
}

TEST(SharedMutexTest, RanksInterleaveWithMutex) {
  // One rank order spans both lock kinds: the restore-commit nesting
  // (sessions -> model, exclusive) and inference (model shared -> pool).
  Mutex sessions(lock_rank::kServerSessions, "sessions");
  SharedMutex model(lock_rank::kServerAgent, "model");
  Mutex pool(lock_rank::kThreadPool, "pool");
  {
    MutexLock a(sessions);
    WriterLock b(model);
  }
  {
    ReaderLock a(model);
    MutexLock b(pool);
  }
  EXPECT_EQ(model.rank(), lock_rank::kServerAgent);
  EXPECT_STREQ(model.name(), "model");
}

// --- Lock-rank detector death tests (CDBTUNE_DCHECK builds) --------------

#if CDBTUNE_DCHECK_ENABLED

TEST(LockRankDeathTest, OutOfOrderAcquireDies) {
  Mutex pool(lock_rank::kThreadPool, "ThreadPool::mu_");
  Mutex registry(lock_rank::kServerSessions, "TuningServer::mu_");
  EXPECT_DEATH(
      {
        MutexLock a(pool);
        MutexLock b(registry);  // 200 after 800: hierarchy inversion.
      },
      "out-of-order acquire of 'TuningServer::mu_' \\(rank 200\\)");
}

TEST(LockRankDeathTest, DeathReportListsHeldLocks) {
  Mutex pool(lock_rank::kThreadPool, "ThreadPool::mu_");
  Mutex registry(lock_rank::kServerSessions, "TuningServer::mu_");
  EXPECT_DEATH(
      {
        MutexLock a(pool);
        MutexLock b(registry);
      },
      "'ThreadPool::mu_' \\(rank 800\\)");
}

TEST(LockRankDeathTest, EqualRankAcquireDies) {
  // Two leaf-ranked locks held together have no defined order — the
  // discipline requires *strictly* ascending ranks.
  Mutex a(lock_rank::kLeaf, "leaf_a");
  Mutex b(lock_rank::kLeaf, "leaf_b");
  EXPECT_DEATH(
      {
        MutexLock la(a);
        MutexLock lb(b);
      },
      "out-of-order acquire of 'leaf_b'");
}

TEST(LockRankDeathTest, SelfDeadlockDies) {
  Mutex mu(lock_rank::kLeaf, "reentrant");
  EXPECT_DEATH(
      {
        mu.Lock();
        mu.Lock();  // Would block forever on a std::mutex.
      },
      "re-entrant acquire of 'reentrant'");
}

TEST(LockRankDeathTest, UnlockWithoutLockDies) {
  Mutex mu(lock_rank::kLeaf, "never_locked");
  EXPECT_DEATH(mu.Unlock(), "release of unheld 'never_locked'");
}

TEST(LockRankDeathTest, AssertHeldDiesWhenNotHeld) {
  Mutex mu(lock_rank::kLeaf, "unheld");
  EXPECT_DEATH(mu.AssertHeld(), "AssertHeld failed: 'unheld'");
}

TEST(LockRankDeathTest, AssertHeldPassesWhenHeld) {
  Mutex mu(lock_rank::kLeaf, "held");
  MutexLock lock(mu);
  mu.AssertHeld();
}

TEST(LockRankDeathTest, CondVarWaitWithoutLockDies) {
  Mutex mu(lock_rank::kLeaf, "unwaitable");
  CondVar cv;
  EXPECT_DEATH(cv.Wait(mu), "CondVar::Wait without holding 'unwaitable'");
}

TEST(LockRankDeathTest, SharedOutOfOrderAcquireDies) {
  Mutex pool(lock_rank::kThreadPool, "ThreadPool::mu_");
  SharedMutex model(lock_rank::kServerAgent, "TuningServer::agent_mu_");
  EXPECT_DEATH(
      {
        MutexLock a(pool);
        ReaderLock b(model);  // A shared acquire obeys the same order.
      },
      "out-of-order acquire of 'TuningServer::agent_mu_' \\(rank 300\\)");
}

TEST(LockRankDeathTest, ReentrantSharedAcquireDies) {
  // The lock prefers writers, so a second shared acquire by the same thread
  // blocks forever if a writer queued in between: a self-deadlock like the
  // exclusive case.
  SharedMutex mu(lock_rank::kLeaf, "reader_twice");
  EXPECT_DEATH(
      {
        ReaderLock a(mu);
        ReaderLock b(mu);
      },
      "re-entrant acquire of 'reader_twice'");
}

TEST(LockRankDeathTest, ReaderToWriterUpgradeDies) {
  SharedMutex mu(lock_rank::kLeaf, "upgrade");
  EXPECT_DEATH(
      {
        ReaderLock a(mu);
        WriterLock b(mu);
      },
      "re-entrant acquire of 'upgrade'");
}

TEST(LockRankDeathTest, UnlockSharedWithoutLockDies) {
  SharedMutex mu(lock_rank::kLeaf, "never_shared");
  EXPECT_DEATH(mu.UnlockShared(), "release of unheld 'never_shared'");
}

#else

TEST(LockRankTest, DetectorCompilesOutInReleaseBuilds) {
  // Without DCHECK the wrapper must degrade to a bare std::mutex: an
  // acquisition the detector would kill (descending rank) just works.
  Mutex pool(lock_rank::kThreadPool, "pool");
  Mutex registry(lock_rank::kServerSessions, "registry");
  MutexLock a(pool);
  MutexLock b(registry);
}

#endif  // CDBTUNE_DCHECK_ENABLED

}  // namespace
}  // namespace cdbtune::util
