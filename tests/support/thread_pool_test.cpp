//===- tests/support/thread_pool_test.cpp - Request-level worker pool -----===//
//
// The ThreadPool is the only source of extra threads: AnalysisBatch and
// the serve daemon each own one pool of TotalThreads workers and run one
// analysis per worker. These tests pin the contract those schedulers rely
// on: every submitted job runs (also jobs submitted by jobs, also jobs
// still queued at destruction), wait() is a reusable barrier, and the
// number of live workers never exceeds the size the pool was built with.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace syntox;

namespace {

TEST(ThreadPoolTest, RunsEveryJobIncludingJobsSubmittedByJobs) {
  ThreadPool Pool(3);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 50; ++I)
    Pool.submit([&] {
      Ran.fetch_add(1);
      Pool.submit([&] { Ran.fetch_add(1); });
    });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 100);
}

TEST(ThreadPoolTest, WaitIsAReusableBarrier) {
  ThreadPool Pool(2);
  Pool.wait(); // nothing submitted: returns at once
  std::atomic<int> Ran{0};
  for (int Round = 1; Round <= 3; ++Round) {
    for (int I = 0; I < 10; ++I)
      Pool.submit([&] { Ran.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Ran.load(), 10 * Round);
  }
}

TEST(ThreadPoolTest, PeakLiveThreadsNeverExceedsThePoolSize) {
  for (unsigned Size : {1u, 2u, 4u}) {
    SCOPED_TRACE(Size);
    ThreadPool Pool(Size);
    std::atomic<int> Ran{0};
    for (int I = 0; I < 64; ++I)
      Pool.submit([&] { Ran.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Ran.load(), 64);
    EXPECT_GE(Pool.peakLiveThreads(), 1u);
    EXPECT_LE(Pool.peakLiveThreads(), Size);
  }
}

TEST(ThreadPoolTest, BlockingJobsRunSideBySideUpToThePoolSize) {
  // Three jobs that each wait for the other two can only all finish if
  // the pool really runs three at once.
  const int N = 3;
  ThreadPool Pool(N);
  std::mutex M;
  std::condition_variable CV;
  int Arrived = 0;
  std::atomic<int> MetTheOthers{0};
  for (int I = 0; I < N; ++I)
    Pool.submit([&] {
      std::unique_lock<std::mutex> Lock(M);
      ++Arrived;
      CV.notify_all();
      if (CV.wait_for(Lock, std::chrono::seconds(30),
                      [&] { return Arrived == N; }))
        MetTheOthers.fetch_add(1);
    });
  Pool.wait();
  EXPECT_EQ(MetTheOthers.load(), N);
  EXPECT_EQ(Pool.peakLiveThreads(), static_cast<unsigned>(N));
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrencyWithAtLeastOneWorker) {
  ThreadPool Pool(0);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 8; ++I)
    Pool.submit([&] { Ran.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Ran.load(), 8);
  EXPECT_GE(Pool.peakLiveThreads(), 1u);
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw != 0) {
    EXPECT_LE(Pool.peakLiveThreads(), Hw);
  }
}

TEST(ThreadPoolTest, DestructionDrainsQueuedJobs) {
  // The destructor joins the workers only once the queue is empty, so a
  // scheduler that forgets to wait() still never drops a request.
  std::atomic<int> Ran{0};
  std::mutex Gate; // outlives the pool, whose first job locks it
  {
    ThreadPool Pool(1);
    std::unique_lock<std::mutex> Hold(Gate);
    Pool.submit([&] { std::lock_guard<std::mutex> L(Gate); });
    for (int I = 0; I < 20; ++I)
      Pool.submit([&] { Ran.fetch_add(1); });
    Hold.unlock();
  }
  EXPECT_EQ(Ran.load(), 20);
}

} // namespace
