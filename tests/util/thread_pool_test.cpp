#include "util/thread_pool.hpp"
#include "util/lane_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace rtmac {
namespace {

TEST(ThreadPoolTest, ZeroThreadsThrows) {
  EXPECT_THROW(ThreadPool{0}, std::invalid_argument);
}

TEST(ThreadPoolTest, ReportsSizeAndHardwareFloor) {
  ThreadPool pool{3};
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_GE(util::hardware_threads(), 1u);
}

TEST(ThreadPoolTest, SubmitReturnsTaskResults) {
  ThreadPool pool{4};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool{2};
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error{"boom"}; });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, NestedWaitDoesNotDeadlockOnSingleThread) {
  // A task that fans out subtasks and waits for them must not deadlock
  // even when it occupies the pool's only worker: wait_all lends the
  // blocked thread back to the queue.
  ThreadPool pool{1};
  auto outer = pool.submit([&pool] {
    std::vector<std::future<int>> inner;
    for (int i = 0; i < 8; ++i) inner.push_back(pool.submit([i] { return i; }));
    pool.wait_all(inner);
    int sum = 0;
    for (auto& f : inner) sum += f.get();
    return sum;
  });
  EXPECT_EQ(outer.get(), 28);
}

TEST(ThreadPoolTest, WaitAllFromOwnerThreadHelpsExecute) {
  ThreadPool pool{1};
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 256; ++i) {
    futures.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  pool.wait_all(futures);
  EXPECT_EQ(ran.load(), 256);
  for (auto& f : futures) f.get();  // none may hold an exception
}

TEST(ThreadPoolTest, ManyConcurrentSubmittersStress) {
  ThreadPool pool{4};
  std::atomic<long> total{0};
  std::vector<std::future<void>> futures;
  futures.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&total, i] { total.fetch_add(i); }));
  }
  pool.wait_all(futures);
  EXPECT_EQ(total.load(), 999L * 1000 / 2);
}

}  // namespace
}  // namespace rtmac
