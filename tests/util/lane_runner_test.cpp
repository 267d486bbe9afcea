#include "util/lane_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace rtmac::util {
namespace {

TEST(LaneRunnerTest, HardwareThreadsIsStableAndAtLeastOne) {
  const std::size_t first = hardware_threads();
  EXPECT_GE(first, 1U);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hardware_threads(), first);
}

TEST(LaneRunnerTest, ZeroLanesThrows) { EXPECT_THROW(LaneRunner{0}, std::invalid_argument); }

TEST(LaneRunnerTest, OneLaneRunsInlineOnTheCaller) {
  LaneRunner runner{1};
  std::thread::id ran_on;
  std::size_t ran_lane = 99;
  auto fn = [&](std::size_t lane) {
    ran_on = std::this_thread::get_id();
    ran_lane = lane;
  };
  runner.run(fn);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(ran_lane, 0U);
  EXPECT_EQ(runner.rounds(), 1U);
  ASSERT_EQ(runner.lane_stats().size(), 1U);
}

TEST(LaneRunnerTest, EveryLaneRunsOncePerRoundAndLaneZeroIsTheCaller) {
  constexpr std::size_t kLanes = 3;
  constexpr int kRounds = 500;
  LaneRunner runner{kLanes};
  std::vector<std::uint64_t> hits(kLanes, 0);  // one slot per lane: no sharing
  std::vector<std::thread::id> lane_thread(kLanes);
  std::uint64_t sum = 0;
  for (int r = 0; r < kRounds; ++r) {
    auto fn = [&](std::size_t lane) {
      ++hits[lane];
      lane_thread[lane] = std::this_thread::get_id();
    };
    runner.run(fn);
    // Everything the lanes wrote is visible once run() returns.
    for (const std::uint64_t h : hits) sum += h;
  }
  for (const std::uint64_t h : hits) EXPECT_EQ(h, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kLanes) * kRounds * (kRounds + 1) / 2);
  EXPECT_EQ(lane_thread[0], std::this_thread::get_id());
  EXPECT_NE(lane_thread[1], lane_thread[0]);
  EXPECT_NE(lane_thread[2], lane_thread[1]);
  EXPECT_EQ(runner.rounds(), static_cast<std::uint64_t>(kRounds));
}

TEST(LaneRunnerTest, ALaneExceptionSurfacesOnTheCallerAndTheRunnerStaysUsable) {
  LaneRunner runner{3};
  auto failing = [](std::size_t lane) {
    if (lane == 2) throw std::runtime_error{"lane 2 failed"};
  };
  try {
    runner.run(failing);
    FAIL() << "the lane's exception did not reach the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane 2 failed");
  }
  // The next round runs normally, and the destructor joins cleanly.
  std::atomic<int> ran{0};
  auto counting = [&ran](std::size_t) { ran.fetch_add(1); };
  runner.run(counting);
  EXPECT_EQ(ran.load(), 3);
}

TEST(LaneRunnerTest, LowestFailingLaneWins) {
  LaneRunner runner{4};
  auto failing = [](std::size_t lane) {
    if (lane >= 1) throw std::runtime_error{"lane " + std::to_string(lane)};
  };
  EXPECT_THROW(
      {
        try {
          runner.run(failing);
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "lane 1");
          throw;
        }
      },
      std::runtime_error);
}

TEST(LaneRunnerTest, StatsAttributeWorkAndWaitPerLane) {
  LaneRunner runner{2};
  std::atomic<bool> lane0_done{false};
  auto fn = [&lane0_done](std::size_t lane) {
    if (lane == 0) {
      lane0_done = true;
      return;
    }
    // Lane 1 starts its 5 ms only once lane 0 has finished, so lane 0 must
    // wait at least that long for the round to end.
    while (!lane0_done.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  runner.run(fn);
  const auto stats = runner.lane_stats();
  ASSERT_EQ(stats.size(), 2U);
  EXPECT_GE(stats[1].work_ns, 5'000'000U);
  // Lane 0 finished at once and waited for lane 1.
  EXPECT_GE(stats[0].wait_ns, 4'000'000U);
}

TEST(SpinBarrierTest, NoPartyLeavesBeforeAllArrive) {
  constexpr std::uint32_t kParties = 4;
  constexpr int kCrossings = 2000;
  SpinBarrier barrier{kParties};
  std::atomic<int> arrivals{0};
  std::atomic<bool> early{false};
  auto party = [&] {
    for (int c = 1; c <= kCrossings; ++c) {
      arrivals.fetch_add(1);
      barrier.arrive_and_wait();
      if (arrivals.load() < c * static_cast<int>(kParties)) early = true;
      barrier.arrive_and_wait();  // keep the next round's arrivals out
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kParties - 1);
  for (std::uint32_t i = 1; i < kParties; ++i) threads.emplace_back(party);
  party();
  for (auto& t : threads) t.join();
  EXPECT_FALSE(early.load());
  EXPECT_EQ(arrivals.load(), kCrossings * static_cast<int>(kParties));
}

TEST(SpinBarrierTest, NonBlockingArrivalsCountTowardTheCrossing) {
  SpinBarrier barrier{3};
  EXPECT_FALSE(barrier.arrive());
  EXPECT_FALSE(barrier.arrive());
  EXPECT_TRUE(barrier.arrive());  // the third arrival completes the crossing
  // The next crossing: a waiter is released by two non-blocking arrivals,
  // whichever of the three comes last.
  std::atomic<bool> released{false};
  std::thread waiter{[&] {
    barrier.arrive_and_wait();
    released = true;
  }};
  (void)barrier.arrive();
  (void)barrier.arrive();
  waiter.join();
  EXPECT_TRUE(released.load());
}

}  // namespace
}  // namespace rtmac::util
