//===- support/ThreadPool.h - Minimal work-queue thread pool ----*- C++ -*-===//
//
// Part of Syntox++, a reproduction of Bourdoncle's abstract debugger
// (PLDI 1993). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool over a FIFO job queue, used by the
/// request-level schedulers (AnalysisBatch, the serve daemon) to run
/// independent analyses concurrently. Jobs may submit further jobs;
/// wait() blocks until the queue is drained *and* every in-flight job has
/// finished. Each analysis runs on one worker, so the pool size is the
/// process's whole thread budget.
///
//===----------------------------------------------------------------------===//

#ifndef SYNTOX_SUPPORT_THREADPOOL_H
#define SYNTOX_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace syntox {

class ThreadPool {
public:
  /// Spawns \p NumThreads workers (0 = std::thread::hardware_concurrency,
  /// with a floor of one worker).
  explicit ThreadPool(unsigned NumThreads = 0) {
    if (NumThreads == 0)
      NumThreads = std::thread::hardware_concurrency();
    if (NumThreads == 0)
      NumThreads = 1;
    Workers.reserve(NumThreads);
    for (unsigned I = 0; I < NumThreads; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      ShuttingDown = true;
    }
    WorkAvailable.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  /// The largest number of workers ever alive at once (<= the worker
  /// count the pool was built with).
  unsigned peakLiveThreads() const {
    return Peak.load(std::memory_order_acquire);
  }

  /// Enqueues a job. Safe to call from worker threads.
  void submit(std::function<void()> Job) {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Queue.push_back(std::move(Job));
      ++Outstanding;
    }
    WorkAvailable.notify_one();
  }

  /// Blocks until every submitted job (including jobs submitted by other
  /// jobs) has completed. The pool is reusable after wait() returns.
  void wait() {
    std::unique_lock<std::mutex> Lock(Mutex);
    AllDone.wait(Lock, [this] { return Outstanding == 0; });
  }

private:
  void workerLoop() {
    unsigned Now = Live.fetch_add(1, std::memory_order_acq_rel) + 1;
    unsigned Seen = Peak.load(std::memory_order_relaxed);
    while (Now > Seen &&
           !Peak.compare_exchange_weak(Seen, Now, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
    }
    for (;;) {
      std::function<void()> Job;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        WorkAvailable.wait(
            Lock, [this] { return ShuttingDown || !Queue.empty(); });
        if (Queue.empty())
          break; // shutting down
        Job = std::move(Queue.front());
        Queue.pop_front();
      }
      Job();
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        if (--Outstanding == 0)
          AllDone.notify_all();
      }
    }
    Live.fetch_sub(1, std::memory_order_acq_rel);
  }

  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  size_t Outstanding = 0;
  bool ShuttingDown = false;
  std::atomic<unsigned> Live{0};
  std::atomic<unsigned> Peak{0};
  std::vector<std::thread> Workers; ///< last: the workers use the above
};

} // namespace syntox

#endif // SYNTOX_SUPPORT_THREADPOOL_H
