// Persistent lane workers for the sharded engine's parallel phases.
//
// A sharded interval (cut-free plans) and every coordinator round
// (conflict-cut plans) is one fork-join over a fixed set of lanes: each lane
// runs its own list of cells, and the caller needs all of them finished
// before it may touch cross-cell state again. A task queue pays an
// allocation, a future and a mutex per task for that; this runner pays two
// barrier crossings per round and nothing else.
//
// `LaneRunner{n}` starts n - 1 persistent threads; the calling thread serves
// as lane 0. A round (`run(fn)`) publishes `fn`, crosses the start barrier,
// runs `fn(0)` inline, and crosses the end barrier; workers run `fn(lane)`
// between the same two crossings. One lane runs inline and starts no
// thread. The barrier spins briefly and then blocks (std::atomic::wait),
// so workers idle between intervals without burning a core.
//
// An exception thrown by `fn` in any lane is caught in that lane and
// rethrown on the calling thread after the end barrier (the lowest lane's
// first); the runner stays usable and joins cleanly afterwards.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <thread>
#include <vector>

namespace rtmac::util {

/// Number of hardware threads, with a floor of 1. Read once per process:
/// the underlying query reads sysfs (tens of microseconds cold).
[[nodiscard]] std::size_t hardware_threads();

/// Sense-reversing barrier for a fixed number of parties. The generation
/// counter is the sense: each completed crossing bumps it, and a waiter
/// leaves once it differs from the value it arrived under. Waiters spin on
/// it briefly, then block; the last arrival wakes sleepers only when there
/// are any. Allocation-free.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::uint32_t parties) : parties_{parties} {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Blocks until all parties have arrived. Everything a party wrote before
  /// arriving is visible to every party after it leaves.
  void arrive_and_wait();
  /// Counts one arrival without waiting for the others; returns true when
  /// it completed the crossing.
  bool arrive();

 private:
  const std::uint32_t parties_;
  alignas(64) std::atomic<std::uint32_t> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> sleepers_{0};
};

class LaneRunner {
 public:
  /// Wall-clock attribution of one lane, summed over rounds. `wait_ns` is
  /// the time from the lane finishing its share to the round's release,
  /// i.e. what the lane lost to the slowest lane.
  struct LaneStats {
    std::uint64_t work_ns = 0;
    std::uint64_t wait_ns = 0;
  };

  /// Starts `lanes - 1` worker threads (`lanes` >= 1).
  explicit LaneRunner(std::size_t lanes);
  /// Releases and joins the workers.
  ~LaneRunner();

  LaneRunner(const LaneRunner&) = delete;
  LaneRunner& operator=(const LaneRunner&) = delete;

  [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }

  /// Runs `fn(lane)` once for every lane and returns when all have
  /// finished. `fn` is borrowed for the round only; it is called from
  /// several threads at once, with distinct lane indices.
  template <typename F>
  void run(F& fn) {
    dispatch(&invoke<F>, &fn);
  }

  /// Per-lane attribution so far. Read between rounds only.
  [[nodiscard]] std::span<const LaneStats> lane_stats() const { return stats_; }
  /// Rounds run so far.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

 private:
  using Trampoline = void (*)(void*, std::size_t);

  template <typename F>
  static void invoke(void* fn, std::size_t lane) {
    (*static_cast<F*>(fn))(lane);
  }

  /// One lane's per-round state, on its own cache line: written only by the
  /// lane's thread inside a round, read by the caller after the end barrier.
  struct alignas(64) Lane {
    std::exception_ptr error;
    std::int64_t done_at_ns = 0;  ///< steady-clock time the lane finished
  };

  void dispatch(Trampoline task, void* ctx);
  /// Runs this round's task for `lane`, recording its work time and error.
  void serve(std::size_t lane);
  void worker_loop(std::size_t lane);

  std::vector<Lane> lanes_;
  std::vector<LaneStats> stats_;  ///< work: the lane's own slot; wait: the caller
  SpinBarrier barrier_;
  // Published by the caller before the start barrier, read by workers after.
  Trampoline task_ = nullptr;
  void* ctx_ = nullptr;
  bool stopping_ = false;
  std::uint64_t rounds_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace rtmac::util
