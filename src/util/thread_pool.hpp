// Fixed-size thread pool for the parallel sweep engine.
//
// Deliberately simple: one shared FIFO queue, a fixed number of workers, no
// work stealing. Sweep tasks are multi-millisecond simulations, so queue
// contention is irrelevant; what matters is that results are written to
// pre-assigned slots so the outcome is independent of scheduling order.
//
// Nested waiting is safe: a task that submits subtasks and then calls
// wait_all()/wait_until() lends its thread to the queue while it waits, so
// a pool of any size (including 1) cannot deadlock on task dependencies
// expressed through those calls.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/thread_annotations.hpp"

namespace rtmac {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers. Throws std::invalid_argument on 0.
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue (runs every task already submitted), then joins.
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result. An exception thrown
  /// by the task is captured and rethrown from future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Blocks until every future is ready, executing queued tasks on the
  /// calling thread while it waits (deadlock-free nested wait). Does NOT
  /// call get(): exceptions stay in the futures for the caller to surface.
  template <typename R>
  void wait_all(std::vector<std::future<R>>& futures) {
    for (auto& f : futures) {
      wait_until([&f] {
        return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
      });
    }
  }

  /// Runs queued tasks on the calling thread until `ready()` returns true.
  void wait_until(const std::function<bool()>& ready) RTMAC_EXCLUDES(mutex_);

 private:
  using Task = std::function<void()>;

  void enqueue(Task task) RTMAC_EXCLUDES(mutex_);
  void worker_loop() RTMAC_EXCLUDES(mutex_);
  /// Pops one task if available; returns false when the queue is empty.
  bool run_one() RTMAC_EXCLUDES(mutex_);

  mutable util::Mutex mutex_;
  util::CondVar work_available_;
  std::deque<Task> queue_ RTMAC_GUARDED_BY(mutex_);
  bool stopping_ RTMAC_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace rtmac
