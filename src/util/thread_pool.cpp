#include "util/thread_pool.hpp"

#include <stdexcept>
#include <utility>

namespace rtmac {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    throw std::invalid_argument{"ThreadPool: num_threads must be >= 1"};
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const util::LockGuard lock{mutex_};
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::enqueue(Task task) {
  {
    const util::LockGuard lock{mutex_};
    if (stopping_) {
      throw std::runtime_error{"ThreadPool: submit on a stopping pool"};
    }
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::worker_loop() {
  // Explicit while-loop rather than the predicate form of wait(): the
  // thread-safety analysis cannot see held capabilities inside a predicate
  // lambda, so the guarded reads of stopping_/queue_ live in this scope.
  util::LockGuard lock{mutex_};
  for (;;) {
    while (!stopping_ && queue_.empty()) work_available_.wait(lock);
    if (queue_.empty()) return;  // stopping_ and drained
    Task task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

bool ThreadPool::run_one() {
  Task task;
  {
    const util::LockGuard lock{mutex_};
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::wait_until(const std::function<bool()>& ready) {
  while (!ready()) {
    if (run_one()) continue;
    // Queue momentarily empty but the awaited work is running on other
    // threads. There is no per-completion signal to wait on (tasks are
    // opaque), so poll with a short sleep; sweep tasks run for
    // milliseconds, making the overhead invisible.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

}  // namespace rtmac
