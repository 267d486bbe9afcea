#include "util/lane_runner.hpp"

#include <chrono>
#include <stdexcept>

namespace rtmac::util {

namespace {

/// How long a waiter spins before it blocks: long enough to cover a
/// coordinator round's serial barrier phase and a lane finishing a little
/// late (a futex wake-up costs tens of microseconds), short enough that a
/// worker idle between intervals soon sleeps.
constexpr std::chrono::microseconds kSpinFor{250};
/// Generation polls between two looks at the clock.
constexpr int kPollsPerClockRead = 64;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t hardware_threads() {
  static const std::size_t threads = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? std::size_t{1} : std::size_t{n};
  }();
  return threads;
}

// ---- SpinBarrier ------------------------------------------------------------

bool SpinBarrier::arrive() {
  // The generation cannot move before this party arrives, so the value read
  // here is the one this crossing will bump.
  const std::uint32_t generation = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 != parties_) return false;
  arrived_.store(0, std::memory_order_relaxed);
  // Sequentially consistent with the sleepers_ handshake in arrive_and_wait:
  // either a sleeper sees the new generation before it blocks, or this load
  // sees the sleeper and wakes it.
  generation_.store(generation + 1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) != 0) generation_.notify_all();
  return true;
}

void SpinBarrier::arrive_and_wait() {
  const std::uint32_t generation = generation_.load(std::memory_order_acquire);
  if (arrive()) return;
  const auto spin_until = std::chrono::steady_clock::now() + kSpinFor;
  do {
    for (int i = 0; i < kPollsPerClockRead; ++i) {
      if (generation_.load(std::memory_order_acquire) != generation) return;
      cpu_relax();
    }
  } while (std::chrono::steady_clock::now() < spin_until);
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  while (generation_.load(std::memory_order_seq_cst) == generation) {
    generation_.wait(generation, std::memory_order_acquire);
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

// ---- LaneRunner -------------------------------------------------------------

LaneRunner::LaneRunner(std::size_t lanes)
    : lanes_(lanes), stats_(lanes), barrier_{static_cast<std::uint32_t>(lanes)} {
  if (lanes == 0) throw std::invalid_argument{"LaneRunner: lanes must be >= 1"};
  workers_.reserve(lanes - 1);
  try {
    for (std::size_t lane = 1; lane < lanes; ++lane) {
      workers_.emplace_back([this, lane] { worker_loop(lane); });
    }
  } catch (...) {
    // A thread failed to start: arrive for the lanes that have none, so the
    // started workers see stopping_ and can be joined.
    stopping_ = true;
    for (std::size_t lane = workers_.size() + 1; lane < lanes; ++lane) barrier_.arrive();
    barrier_.arrive_and_wait();
    for (std::thread& worker : workers_) worker.join();
    throw;
  }
}

LaneRunner::~LaneRunner() {
  if (workers_.empty()) return;
  stopping_ = true;
  barrier_.arrive_and_wait();  // the start barrier of a round that never runs
  for (std::thread& worker : workers_) worker.join();
}

void LaneRunner::serve(std::size_t lane) {
  Lane& self = lanes_[lane];
  const std::int64_t start = steady_ns();
  try {
    task_(ctx_, lane);
  } catch (...) {
    self.error = std::current_exception();
  }
  self.done_at_ns = steady_ns();
  stats_[lane].work_ns += static_cast<std::uint64_t>(self.done_at_ns - start);
}

void LaneRunner::worker_loop(std::size_t lane) {
  for (;;) {
    barrier_.arrive_and_wait();  // start: task_/ctx_/stopping_ are published
    if (stopping_) return;
    serve(lane);
    barrier_.arrive_and_wait();  // end: this lane's results are published
  }
}

void LaneRunner::dispatch(Trampoline task, void* ctx) {
  task_ = task;
  ctx_ = ctx;
  if (workers_.empty()) {
    serve(0);
  } else {
    barrier_.arrive_and_wait();
    serve(0);
    barrier_.arrive_and_wait();
  }
  ++rounds_;
  const std::int64_t released = steady_ns();
  std::exception_ptr first;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    Lane& l = lanes_[lane];
    stats_[lane].wait_ns += static_cast<std::uint64_t>(released - l.done_at_ns);
    if (l.error != nullptr && first == nullptr) first = l.error;
    l.error = nullptr;
  }
  if (first != nullptr) std::rethrow_exception(first);
}

}  // namespace rtmac::util
