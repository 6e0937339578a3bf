// Tests for src/common/annotated_lock.h: guard round-trips, try-lock
// semantics, the ScopedLock release/reacquire window, CondVar integration,
// and the run-time lock-rank checker (fire on a deliberate inversion and on
// equal-rank nesting, no fire on ascending order).
#include "common/annotated_lock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace speed {
namespace {

TEST(AnnotatedLockTest, MutexLockSerializesIncrements) {
  Mutex mu{LockRank::kApp};
  std::uint64_t counter GUARDED_BY(mu) = 0;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& w : workers) w.join();

  MutexLock lock(mu);
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(AnnotatedLockTest, TryLockFailsWhileHeldSucceedsAfterRelease) {
  Mutex mu{LockRank::kApp};
  mu.lock();
  // From another thread (same-thread re-try on std::mutex is undefined).
  std::thread contender([&] { EXPECT_FALSE(mu.try_lock()); });
  contender.join();
  mu.unlock();

  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(AnnotatedLockTest, ScopedLockReleaseWindowAdmitsOtherThreads) {
  Mutex mu{LockRank::kApp};
  std::atomic<bool> other_ran{false};

  ScopedLock lock(mu);
  lock.unlock();
  {
    std::thread other([&] {
      MutexLock inner(mu);
      other_ran.store(true);
    });
    other.join();
  }
  EXPECT_TRUE(other_ran.load());
  lock.lock();  // reacquire; destructor releases exactly once
}

TEST(AnnotatedLockTest, CondVarWaitReleasesAndReacquires) {
  Mutex mu{LockRank::kApp};
  CondVar cv;
  bool ready GUARDED_BY(mu) = false;

  std::thread producer([&] {
    {
      MutexLock lock(mu);
      ready = true;
    }
    cv.notify_one();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(AnnotatedLockTest, ReaderLocksShareWriterLockExcludes) {
  SharedMutex mu{LockRank::kAccess};
  int value GUARDED_BY(mu) = 7;

  // Two concurrent readers: both must be inside the lock at once.
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      ReaderLock lock(mu);
      const int now = inside.fetch_add(1) + 1;
      int prev = peak.load();
      while (prev < now && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_EQ(value, 7);
      inside.fetch_sub(1);
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(peak.load(), 2);

  {
    WriterLock lock(mu);
    value = 8;
  }
  ReaderLock lock(mu);
  EXPECT_EQ(value, 8);
}

// ---------------------------------------------------------------- rank check

std::atomic<int> g_violations{0};
std::atomic<std::uint16_t> g_last_acquiring{0};
std::atomic<std::uint16_t> g_last_held{0};

void record_violation(LockRank acquiring, LockRank held) {
  g_violations.fetch_add(1);
  g_last_acquiring.store(rank_value(acquiring));
  g_last_held.store(rank_value(held));
}

class RankCheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!lock_rank_check_enabled()) {
      GTEST_SKIP() << "built without SPEED_LOCK_RANK_CHECK";
    }
    g_violations.store(0);
    prev_ = set_rank_violation_handler(&record_violation);
  }
  void TearDown() override {
    if (lock_rank_check_enabled()) set_rank_violation_handler(prev_);
  }
  RankViolationHandler prev_ = nullptr;
};

TEST_F(RankCheckTest, DeliberateInversionFires) {
  Mutex outer{LockRank::kStoreShard};    // 600
  Mutex inner{LockRank::kRuntimeChannel};  // 200
  {
    MutexLock a(outer);
    MutexLock b(inner);  // 200 under 600: out of order
  }
  EXPECT_EQ(g_violations.load(), 1);
  EXPECT_EQ(g_last_acquiring.load(), rank_value(LockRank::kRuntimeChannel));
  EXPECT_EQ(g_last_held.load(), rank_value(LockRank::kStoreShard));
}

TEST_F(RankCheckTest, EqualRankNestingFires) {
  Mutex first{LockRank::kStoreShard};
  Mutex second{LockRank::kStoreShard};
  {
    MutexLock a(first);
    MutexLock b(second);  // equal rank: the order must STRICTLY increase
  }
  EXPECT_EQ(g_violations.load(), 1);
}

TEST_F(RankCheckTest, AscendingOrderDoesNotFire) {
  Mutex low{LockRank::kApp};           // 100
  Mutex mid{LockRank::kStoreShard};    // 600
  Mutex high{LockRank::kCryptoDrbg};   // 950
  {
    MutexLock a(low);
    MutexLock b(mid);
    MutexLock c(high);
  }
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(RankCheckTest, ReleaseResetsTheCeiling) {
  Mutex low{LockRank::kApp};
  Mutex high{LockRank::kStoreShard};
  {
    MutexLock lock(high);
  }
  // high is released: acquiring the lower rank now is fine.
  MutexLock lock(low);
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(RankCheckTest, TryLockSkipsOrderCheckButCountsAsHeld) {
  Mutex outer{LockRank::kStoreShard};    // 600
  Mutex tried{LockRank::kRuntimeQueue};  // 470
  Mutex low{LockRank::kApp};             // 100
  {
    MutexLock a(outer);
    // A try-lock that would invert merely succeeds without a check (a try
    // that would deadlock just fails) — no violation...
    ASSERT_TRUE(tried.try_lock());
    EXPECT_EQ(g_violations.load(), 0);
    // ...but its rank still counts against later BLOCKING acquisitions.
    MutexLock b(low);
    EXPECT_EQ(g_violations.load(), 1);
    tried.unlock();
  }
}

TEST_F(RankCheckTest, HeldRanksAreThreadLocal) {
  Mutex high{LockRank::kStoreShard};
  Mutex low{LockRank::kApp};
  MutexLock lock(high);
  // Another thread's acquisitions are checked against ITS held set only.
  std::thread other([&] { MutexLock inner(low); });
  other.join();
  EXPECT_EQ(g_violations.load(), 0);
}

}  // namespace
}  // namespace speed
