// Equivalence and regression tests for the batch SoA DP path.
//
// Three layers of defence keep the batch kernel honest:
//   1. kernel math vs the per-link formulas (dp_backoff_count & friends);
//   2. whole-network runs: batch path vs the retained scalar reference path
//      must be BIT-IDENTICAL — same deliveries every interval, same debts,
//      same priorities, same channel counters — across randomized seeds,
//      network sizes, reliabilities, and multi-pair configurations;
//   3. allocation regression: the steady-state interval hot path of the
//      batch DP scheme (and of centralized LDF) performs zero heap
//      allocations, counted with interposed global new/delete.
#include "mac/dp_batch_kernel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/debt.hpp"
#include "core/mu.hpp"
#include "expfw/scenarios.hpp"
#include "mac/dp_link_mac.hpp"
#include "mac/priority_provider.hpp"
#include "net/network.hpp"
#include "phy/interference.hpp"
#include "phy/phy_params.hpp"

// ---- allocation counting ----------------------------------------------------
// Interposed global new/delete: counts every heap allocation made by this
// binary. Tests read the counter around a measurement window; gtest's own
// allocations outside the window are irrelevant.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

// Over-aligned types (the lane runner's per-lane cache lines) need the
// requested alignment, which malloc does not promise.
void* counted_alloc(std::size_t size, std::align_val_t alignment) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(alignment);
  const std::size_t rounded = (size + align - 1) / align * align;  // aligned_alloc's rule
  if (void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded)) return p;
  throw std::bad_alloc{};
}
}  // namespace

// gcc -O2 cannot see that the replaced operator new forwards to malloc, so
// inlined delete sites trip -Wmismatched-new-delete; the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rtmac::mac {
namespace {

// ---- 1. kernel math vs per-link formulas ------------------------------------

TEST(DpBatchKernelTest, PlanIntervalMatchesPerLinkFormulas) {
  constexpr std::size_t kN = 8;
  const SharedSeed shared{77};
  const FixedMuProvider provider{std::vector<double>(kN, 0.5)};
  std::vector<PriorityIndex> initial(kN);
  for (LinkId n = 0; n < kN; ++n) initial[n] = static_cast<PriorityIndex>(n + 1);
  DpBatchKernel kernel{kN, shared, provider, /*reordering=*/true, /*max_pairs=*/1,
                       initial,  /*seed=*/123};

  for (IntervalIndex k = 0; k < 200; ++k) {
    kernel.plan_interval(k);
    const auto pairs = kernel.candidate_pairs();
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0], shared.candidate(k, kN));
    for (LinkId n = 0; n < kN; ++n) {
      bool is_lower = false;
      const bool candidate = dp_is_candidate(kernel.priority(n), pairs, &is_lower);
      EXPECT_EQ(kernel.is_candidate(n), candidate);
      if (candidate) {
        EXPECT_EQ(kernel.role(n),
                  is_lower ? DpBatchKernel::Role::kLower : DpBatchKernel::Role::kUpper);
        EXPECT_TRUE(kernel.coin(n) == 1 || kernel.coin(n) == -1);
      } else {
        EXPECT_EQ(kernel.role(n), DpBatchKernel::Role::kBystander);
        EXPECT_EQ(kernel.coin(n), 0);
      }
      EXPECT_EQ(kernel.backoff_count(n),
                dp_backoff_count(kernel.priority(n), pairs, kernel.coin(n)));
    }
    // Collision freedom: windows are pairwise distinct whatever the coins.
    std::set<int> betas(kernel.backoff_counts().begin(), kernel.backoff_counts().end());
    EXPECT_EQ(betas.size(), kN);
  }
}

TEST(DpBatchKernelTest, MultiPairWindowsStayUnique) {
  constexpr std::size_t kN = 12;
  const SharedSeed shared{5};
  const FixedMuProvider provider{std::vector<double>(kN, 0.5)};
  std::vector<PriorityIndex> initial(kN);
  for (LinkId n = 0; n < kN; ++n) initial[n] = static_cast<PriorityIndex>(n + 1);
  DpBatchKernel kernel{kN, shared, provider, /*reordering=*/true, /*max_pairs=*/3,
                       initial,  /*seed=*/9};
  for (IntervalIndex k = 0; k < 300; ++k) {
    kernel.plan_interval(k);
    std::set<int> betas(kernel.backoff_counts().begin(), kernel.backoff_counts().end());
    EXPECT_EQ(betas.size(), kN) << "duplicate window at interval " << k;
  }
}

// A shard cell holds k links whose priorities live in the GLOBAL space of
// all N links; its kernel and shared clock must cost O(k), not O(N).

TEST(DpBatchKernelTest, CellKernelMemoryDoesNotGrowWithThePrioritySpace) {
  constexpr std::size_t kCellLinks = 8;
  const FixedMuProvider provider{std::vector<double>(kCellLinks, 0.5)};
  auto kernel_bytes = [&provider](std::size_t space) {
    // The cell's links sit at the top of the global order.
    std::vector<PriorityIndex> initial(kCellLinks);
    std::vector<LinkId> ids(kCellLinks);
    for (LinkId n = 0; n < kCellLinks; ++n) {
      ids[n] = static_cast<LinkId>(space - kCellLinks + n);
      initial[n] = static_cast<PriorityIndex>(ids[n] + 1);
    }
    DpBatchKernel kernel{kCellLinks, SharedSeed{3}, provider, /*reordering=*/true,
                         /*max_pairs=*/1, initial, /*seed=*/4, space, ids};
    for (IntervalIndex k = 0; k < 50; ++k) {
      kernel.plan_interval(k);
      kernel.validate_permutation();
    }
    return kernel.memory_bytes();
  };
  EXPECT_EQ(kernel_bytes(10'000), kernel_bytes(kCellLinks));
}

TEST(DpBatchBackoffTest, WindowsSpreadOverTheGlobalSpaceFireInWindowOrder) {
  constexpr auto kSlot = Duration::microseconds(9);
  constexpr std::size_t kLinks = 8;
  sim::Simulator sim;
  phy::Medium medium{sim, ProbabilityVector(kLinks, 1.0), 99};
  std::vector<LinkId> fired;
  std::vector<TimePoint> fired_at;
  DpBatchBackoff clock{sim, medium, kSlot, kLinks, /*freeze_capacity_hint=*/4,
                       DpBatchBackoff::ExpiryHandler{[&fired, &fired_at, &sim](LinkId n) {
                         fired.push_back(n);
                         fired_at.push_back(sim.now());
                       }}};
  const std::vector<int> betas = {9'999, 0, 4'321, 17, 10'000, 256, 7'777, 1'024};
  std::vector<std::uint8_t> armed(kLinks, 1);
  armed[6] = 0;  // nothing to send: left out of the schedule
  const std::size_t bytes_before = clock.memory_bytes();
  clock.begin_interval(sim.now(), betas, armed, /*include_unarmed=*/false);
  sim.run();

  const std::vector<LinkId> expected = {1, 3, 5, 7, 2, 0, 4};
  EXPECT_EQ(fired, expected);
  ASSERT_EQ(fired_at.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fired_at[i], TimePoint::origin() + betas[expected[i]] * kSlot) << "expiry " << i;
  }
  // No storage indexed by window value: the largest window costs nothing.
  EXPECT_EQ(clock.memory_bytes(), bytes_before);
}

// ---- 2. batch path vs scalar reference, whole-network runs ------------------

/// Everything observable about one run that equivalence compares.
struct RunRecord {
  std::vector<std::vector<int>> delivered;  ///< per interval, per link
  std::vector<double> final_debts;
  std::vector<PriorityIndex> final_priorities;
  phy::MediumCounters counters;
  bool batch_path = false;
};

mac::SchemeFactory dbdp_path_factory(bool force_scalar, int max_swap_pairs = 1) {
  return [force_scalar, max_swap_pairs](const mac::SchemeContext& ctx) {
    auto provider = std::make_unique<mac::DebtMuProvider>(
        core::DebtMu{expfw::paper_influence(), expfw::kPaperR}, ctx.debts,
        ctx.success_prob);
    const mac::DpLinkParams params{
        .data_airtime = ctx.phy.data_airtime,
        .empty_airtime = ctx.phy.empty_airtime,
        .backoff_slot = ctx.phy.backoff_slot,
        .reordering = true,
        .max_swap_pairs = max_swap_pairs,
        .force_scalar_path = force_scalar,
    };
    return std::make_unique<mac::DpScheme>(ctx, std::move(provider), params,
                                           force_scalar ? "DB-DP(scalar)" : "DB-DP");
  };
}

RunRecord run_dbdp(const net::NetworkConfig& base, bool force_scalar,
                   IntervalIndex intervals, int max_swap_pairs = 1) {
  net::Network net{base.clone(), dbdp_path_factory(force_scalar, max_swap_pairs)};
  RunRecord rec;
  net.add_observer([&rec](IntervalIndex, std::span<const int>, std::span<const int> s) {
    rec.delivered.emplace_back(s.begin(), s.end());
  });
  net.run(intervals);
  rec.final_debts = net.debts().debts();
  const auto* dp = dynamic_cast<const DpScheme*>(&net.cell_scheme(0));
  EXPECT_NE(dp, nullptr);
  rec.final_priorities = dp->priority_vector();
  rec.batch_path = dp->batch_path();
  rec.counters = net.medium_counters();
  return rec;
}

void expect_identical(const RunRecord& batch, const RunRecord& scalar) {
  EXPECT_TRUE(batch.batch_path);
  EXPECT_FALSE(scalar.batch_path);
  ASSERT_EQ(batch.delivered.size(), scalar.delivered.size());
  for (std::size_t k = 0; k < batch.delivered.size(); ++k) {
    ASSERT_EQ(batch.delivered[k], scalar.delivered[k]) << "diverged at interval " << k;
  }
  EXPECT_EQ(batch.final_debts, scalar.final_debts);
  EXPECT_EQ(batch.final_priorities, scalar.final_priorities);
  EXPECT_EQ(batch.counters.data_tx, scalar.counters.data_tx);
  EXPECT_EQ(batch.counters.empty_tx, scalar.counters.empty_tx);
  EXPECT_EQ(batch.counters.delivered, scalar.counters.delivered);
  EXPECT_EQ(batch.counters.channel_losses, scalar.counters.channel_losses);
  EXPECT_EQ(batch.counters.collisions, 0u);
  EXPECT_EQ(scalar.counters.collisions, 0u);
  EXPECT_EQ(batch.counters.busy_time, scalar.counters.busy_time);
}

TEST(DpBatchEquivalenceTest, VideoScenarioAcrossSeeds) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
    const auto cfg = expfw::video_symmetric(0.55, 0.9, seed);
    const RunRecord batch = run_dbdp(cfg, /*force_scalar=*/false, 120);
    const RunRecord scalar = run_dbdp(cfg, /*force_scalar=*/true, 120);
    expect_identical(batch, scalar);
    EXPECT_GT(batch.counters.data_tx, 0u);
  }
}

TEST(DpBatchEquivalenceTest, SmallLossyNetwork) {
  // Different shape: 6 links, heavy loss, tighter requirement — exercises
  // retransmission bursts and empty claims far more often per interval.
  const auto cfg = expfw::video_symmetric(0.55, 0.9, 99);
  net::NetworkConfig small = cfg.clone();
  small.success_prob = ProbabilityVector(6, 0.6);
  // Arrivals stay on the shared uniform spec, which covers any link count.
  small.requirements.lambda.resize(6);
  small.requirements.rho.assign(6, 0.8);
  const RunRecord batch = run_dbdp(small, /*force_scalar=*/false, 150);
  const RunRecord scalar = run_dbdp(small, /*force_scalar=*/true, 150);
  expect_identical(batch, scalar);
  EXPECT_GT(batch.counters.channel_losses, 0u);
}

TEST(DpBatchEquivalenceTest, MultiPairSwaps) {
  const auto cfg = expfw::video_symmetric(0.55, 0.9, 21);
  const RunRecord batch = run_dbdp(cfg, /*force_scalar=*/false, 80, /*max_swap_pairs=*/3);
  const RunRecord scalar = run_dbdp(cfg, /*force_scalar=*/true, 80, /*max_swap_pairs=*/3);
  expect_identical(batch, scalar);
}

TEST(DpBatchEquivalenceTest, PartialSensingFallsBackToScalar) {
  // A ring interference graph is not a complete collision domain: the batch
  // path must refuse it and both "paths" run the per-link engines.
  net::NetworkConfig cfg = expfw::video_symmetric(0.55, 0.9, 3);
  const std::size_t n = cfg.num_links();
  std::vector<std::vector<LinkId>> ring(n);
  for (LinkId i = 0; i < n; ++i) {
    ring[i] = {static_cast<LinkId>((i + 1) % n), static_cast<LinkId>((i + n - 1) % n)};
  }
  cfg.topology = phy::InterferenceGraph::from_lists(n, ring, ring);
  net::Network net{std::move(cfg), dbdp_path_factory(/*force_scalar=*/false)};
  net.run(20);
  const auto* dp = dynamic_cast<const DpScheme*>(&net.cell_scheme(0));
  ASSERT_NE(dp, nullptr);
  EXPECT_FALSE(dp->batch_path());
}

// ---- 3. allocation regression ----------------------------------------------

/// Allocations across `measure` intervals after `warmup` intervals of
/// warm-up (buffers at working-set capacity, RNG and pools primed).
std::uint64_t steady_state_allocs(const mac::SchemeFactory& factory, IntervalIndex warmup,
                                  IntervalIndex measure) {
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), factory};
  net.run(warmup);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  net.run(measure);
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(DpBatchAllocTest, SteadyStateIntervalPathIsAllocationFree) {
  EXPECT_EQ(steady_state_allocs(expfw::dbdp_factory(), 8, 32), 0u);
}

TEST(DpBatchAllocTest, LdfSteadyStateIntervalPathIsAllocationFree) {
  EXPECT_EQ(steady_state_allocs(expfw::ldf_factory(), 8, 32), 0u);
}

}  // namespace
}  // namespace rtmac::mac
