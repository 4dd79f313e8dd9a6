// Tests for the annotated sync layer (common/sync.h): lock scoping,
// CondVar signalling under contention, SharedMutex reader/writer
// semantics, the runtime lock-rank order checks (death tests), the
// single-threaded-by-contract sentinels, and a multi-thread soak that
// doubles as TSan coverage (SyncTest.* runs in the TSan gate).
#include "common/sync.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace p2prange {
namespace {

TEST(SyncTest, MutexLockExcludesOtherThreads) {
  Mutex mu;
  bool locked_elsewhere = true;
  {
    MutexLock lock(&mu);
    // A second thread must fail TryLock while we hold the mutex.
    std::thread probe([&] { locked_elsewhere = !mu.TryLock(); });
    probe.join();
    EXPECT_TRUE(locked_elsewhere);
  }
  // After the scope closes, the mutex is free again.
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SyncTest, CondVarWakesWaiterUnderContention) {
  Mutex mu;
  CondVar cv;
  int stage = 0;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (stage == 0) cv.Wait(&mu);
    stage = 2;
  });
  {
    MutexLock lock(&mu);
    stage = 1;
  }
  cv.SignalAll();
  waiter.join();
  MutexLock lock(&mu);
  EXPECT_EQ(stage, 2);
}

TEST(SyncTest, CondVarWaitForTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  // Nobody signals: the timed wait must come back false, still
  // holding the lock (the Unlock in ~MutexLock would abort if not).
  EXPECT_FALSE(cv.WaitFor(&mu, std::chrono::milliseconds(5)));
}

TEST(SyncTest, SharedMutexAllowsConcurrentReaders) {
  SharedMutex mu;
  ReaderMutexLock first(&mu);
  bool second_reader_entered = false;
  std::thread reader([&] {
    ReaderMutexLock second(&mu);
    second_reader_entered = true;
  });
  reader.join();
  EXPECT_TRUE(second_reader_entered);
}

TEST(SyncTest, SharedMutexWriterExcludesReaders) {
  SharedMutex mu;
  int value = 0;
  std::thread writer;
  {
    WriterMutexLock write(&mu);
    writer = std::thread([&] {
      ReaderMutexLock read(&mu);
      // Runs only after the writer scope closes below.
      EXPECT_EQ(value, 42);
    });
    value = 42;
  }
  writer.join();
}

TEST(SyncTest, FourThreadSoakCountsExactly) {
  // The TSan meat: four threads hammer one counter through the
  // annotated lock and a CondVar-coordinated drain. Any hole in the
  // wrapper (a Wait that drops ownership, an Unlock ordering bug)
  // shows up as a data race or a wrong count.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2500;
  Mutex mu;
  CondVar cv;
  int counter = 0;
  int finished = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
      MutexLock lock(&mu);
      ++finished;
      cv.Signal();
    });
  }
  {
    MutexLock lock(&mu);
    while (finished < kThreads) cv.Wait(&mu);
    EXPECT_EQ(counter, kThreads * kPerThread);
  }
  for (std::thread& t : threads) t.join();
}

TEST(SyncTest, OrderedRankAcquisitionIsFine) {
  Mutex outer(10);
  Mutex inner(20);
  MutexLock a(&outer);
  MutexLock b(&inner);  // strictly increasing: allowed
  SUCCEED();
}

TEST(SyncTest, UnrankedMutexIgnoresOrder) {
  Mutex ranked(50);
  Mutex unranked;
  MutexLock a(&ranked);
  MutexLock b(&unranked);  // opted out of the rank order entirely
  SUCCEED();
}

#ifdef GTEST_HAS_DEATH_TEST

TEST(SyncDeathTest, RankInversionAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex outer(20);
        Mutex inner(10);
        MutexLock a(&outer);
        MutexLock b(&inner);  // rank 10 while holding 20: inversion
      },
      "lock-rank inversion");
}

TEST(SyncDeathTest, SameRankReacquireAborts) {
  // Two locks of equal rank: "strictly greater" forbids the second,
  // which is exactly the self-deadlock shape (A waits on A's rank).
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex a(30);
        Mutex b(30);
        MutexLock la(&a);
        MutexLock lb(&b);
      },
      "lock-rank inversion");
}

TEST(SyncDeathTest, ConcurrentExclusiveUseAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ExclusiveUse guard;
        ExclusiveUse::Scope outer(&guard, "test::outer");
        std::thread intruder(
            [&] { ExclusiveUse::Scope inner(&guard, "test::inner"); });
        intruder.join();
      },
      "concurrent use of a single-threaded object");
}

#endif  // GTEST_HAS_DEATH_TEST

TEST(SyncTest, ExclusiveUseAllowsReentrancyAndHandoff) {
  ExclusiveUse guard;
  {
    ExclusiveUse::Scope outer(&guard, "test::outer");
    ExclusiveUse::Scope inner(&guard, "test::inner");  // same thread: fine
  }
  // All scopes closed: a different thread may take over (the join
  // above is the synchronization that makes the handoff legal).
  std::thread successor([&] { ExclusiveUse::Scope s(&guard, "test::next"); });
  successor.join();
  ExclusiveUse::Scope back(&guard, "test::back");  // and back again
}

TEST(SyncTest, ThreadCheckerPinsAndRebinds) {
  ThreadChecker checker;
  EXPECT_TRUE(checker.CalledOnOwnerThread());
  bool other_thread_owns = true;
  std::thread other([&] { other_thread_owns = checker.CalledOnOwnerThread(); });
  other.join();
  EXPECT_FALSE(other_thread_owns);

  std::thread rebinder([&] {
    checker.Rebind();
    EXPECT_TRUE(checker.CalledOnOwnerThread());
  });
  rebinder.join();
  EXPECT_FALSE(checker.CalledOnOwnerThread());
  checker.Rebind();
  EXPECT_TRUE(checker.CalledOnOwnerThread());
}

}  // namespace
}  // namespace p2prange
