// A small fixed-size task pool for embarrassingly parallel passes.
//
// Design point: this is deliberately *not* a work-stealing scheduler.
// The parallel passes in this library (the fleet and frontier sweeps,
// both dispatched by sim::run_sweep) consist of many independent,
// similarly sized items, so a single FIFO queue guarded by one mutex is
// contention-free in practice (items run for ~100 µs, dequeues take
// ~100 ns) and keeps the pool small enough to audit for the determinism
// rules of sim/sweep.hpp.
//
//  * submit() enqueues one task and returns a future; an exception thrown
//    by the task is captured and rethrown from future::get().
//  * wait_idle() blocks until every submitted task has finished.
//  * The destructor is a deterministic shutdown: it finishes every task
//    already in the queue, then joins all workers — no task is dropped,
//    no future is left broken.
//
// The pool never touches vrdf::log or any other global; workers run
// exactly the closures they are given.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace vrdf::util {

class ThreadPool {
 public:
  /// Spawns exactly `threads` workers (>= 1).
  explicit ThreadPool(std::size_t threads);

  /// Finishes all queued tasks, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues one task (FIFO).  The returned future completes when the
  /// task finishes and carries the task's exception, if it threw.
  /// Submitting to a pool whose destructor has started is a contract
  /// error.
  std::future<void> submit(std::function<void()> task);

  /// Blocks until the queue is empty and no worker is running a task.
  void wait_idle();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::packaged_task<void()>> queue_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace vrdf::util
