// Equivalence tests for the SharedBackoffClock batch path of the DCF and
// FCSMA baselines.
//
// On a complete-sensing collision domain both schemes replace N per-link
// BackoffEngines with ONE shared slot clock. The clock must be
// draw-for-draw indistinguishable from the scalar machines: the same
// per-link RNG streams consumed in the same order, busy edges freezing the
// same residual counts, ties between simultaneous expiries resolved in the
// same order. Tie order is RESULT-AFFECTING — on complete domains channel
// losses draw from one shared stream in completion order — so whole-network
// runs must be BIT-IDENTICAL between the paths: same deliveries every
// interval, same debts, same Medium counters (including busy_time, which
// catches any timing drift), across seeds and network shapes.
#include "mac/shared_backoff_clock.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "expfw/scenarios.hpp"
#include "mac/dcf_mac.hpp"
#include "mac/fcsma_mac.hpp"
#include "net/network.hpp"
#include "phy/interference.hpp"

namespace rtmac::mac {
namespace {

/// Everything observable about one run that equivalence compares.
struct RunRecord {
  std::vector<std::vector<int>> delivered;  ///< per interval, per link
  std::vector<double> final_debts;
  phy::MediumCounters counters;
  bool batch_path = false;
};

SchemeFactory dcf_path_factory(bool force_scalar) {
  return [force_scalar](const SchemeContext& ctx) {
    DcfParams params;
    params.force_scalar_path = force_scalar;
    return std::make_unique<DcfScheme>(ctx, params,
                                       force_scalar ? "DCF(scalar)" : "DCF");
  };
}

SchemeFactory fcsma_path_factory(bool force_scalar) {
  return [force_scalar](const SchemeContext& ctx) {
    FcsmaParams params;
    params.force_scalar_path = force_scalar;
    return std::make_unique<FcsmaScheme>(ctx, params,
                                         force_scalar ? "FCSMA(scalar)" : "FCSMA");
  };
}

template <typename Scheme>
RunRecord run_scheme(const net::NetworkConfig& base, const SchemeFactory& factory,
                     IntervalIndex intervals) {
  net::Network net{base.clone(), factory};
  RunRecord rec;
  net.add_observer([&rec](IntervalIndex, std::span<const int>, std::span<const int> s) {
    rec.delivered.emplace_back(s.begin(), s.end());
  });
  net.run(intervals);
  rec.final_debts = net.debts().debts();
  const auto* scheme = dynamic_cast<const Scheme*>(&net.cell_scheme(0));
  EXPECT_NE(scheme, nullptr);
  rec.batch_path = scheme->batch_path();
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
  EXPECT_EQ(batch.counters.data_tx, scalar.counters.data_tx);
  EXPECT_EQ(batch.counters.delivered, scalar.counters.delivered);
  EXPECT_EQ(batch.counters.channel_losses, scalar.counters.channel_losses);
  EXPECT_EQ(batch.counters.collisions, scalar.counters.collisions);
  EXPECT_EQ(batch.counters.busy_time, scalar.counters.busy_time);
}

TEST(SharedBackoffClockTest, DcfVideoScenarioAcrossSeeds) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 1234ULL}) {
    const auto cfg = expfw::video_symmetric(0.55, 0.9, seed);
    const RunRecord batch =
        run_scheme<DcfScheme>(cfg, dcf_path_factory(/*force_scalar=*/false), 120);
    const RunRecord scalar =
        run_scheme<DcfScheme>(cfg, dcf_path_factory(/*force_scalar=*/true), 120);
    expect_identical(batch, scalar);
    // DCF under bursty video load must actually collide (CW doubling and the
    // freeze/resume machinery are exercised, not idled past).
    EXPECT_GT(batch.counters.collisions, 0u);
    EXPECT_GT(batch.counters.data_tx, 0u);
  }
}

TEST(SharedBackoffClockTest, DcfControlScenario) {
  // Different shape: 10 links, Bernoulli arrivals, 2 ms deadline — short
  // intervals hit the deadline gap rule and interval-boundary stop() often.
  const auto cfg = expfw::control_symmetric(0.8, 0.9, 42);
  const RunRecord batch =
      run_scheme<DcfScheme>(cfg, dcf_path_factory(/*force_scalar=*/false), 200);
  const RunRecord scalar =
      run_scheme<DcfScheme>(cfg, dcf_path_factory(/*force_scalar=*/true), 200);
  expect_identical(batch, scalar);
}

TEST(SharedBackoffClockTest, FcsmaVideoScenarioAcrossSeeds) {
  for (const std::uint64_t seed : {3ULL, 11ULL, 4321ULL}) {
    const auto cfg = expfw::video_symmetric(0.55, 0.9, seed);
    const RunRecord batch =
        run_scheme<FcsmaScheme>(cfg, fcsma_path_factory(/*force_scalar=*/false), 120);
    const RunRecord scalar =
        run_scheme<FcsmaScheme>(cfg, fcsma_path_factory(/*force_scalar=*/true), 120);
    expect_identical(batch, scalar);
    EXPECT_GT(batch.counters.data_tx, 0u);
  }
}

TEST(SharedBackoffClockTest, FcsmaControlScenario) {
  const auto cfg = expfw::control_symmetric(0.8, 0.9, 77);
  const RunRecord batch =
      run_scheme<FcsmaScheme>(cfg, fcsma_path_factory(/*force_scalar=*/false), 200);
  const RunRecord scalar =
      run_scheme<FcsmaScheme>(cfg, fcsma_path_factory(/*force_scalar=*/true), 200);
  expect_identical(batch, scalar);
}

TEST(SharedBackoffClockTest, PartialSensingFallsBackToScalar) {
  // A ring interference graph is not a complete collision domain: the batch
  // path must refuse it and run the per-link engines.
  net::NetworkConfig cfg = expfw::video_symmetric(0.55, 0.9, 5);
  const std::size_t n = cfg.num_links();
  std::vector<std::vector<LinkId>> ring(n);
  for (LinkId i = 0; i < n; ++i) {
    ring[i] = {static_cast<LinkId>((i + 1) % n), static_cast<LinkId>((i + n - 1) % n)};
  }
  cfg.topology = phy::InterferenceGraph::from_lists(n, ring, ring);
  net::Network net{std::move(cfg), dcf_path_factory(/*force_scalar=*/false)};
  net.run(20);
  const auto* dcf = dynamic_cast<const DcfScheme*>(&net.cell_scheme(0));
  ASSERT_NE(dcf, nullptr);
  EXPECT_FALSE(dcf->batch_path());
}

TEST(SharedBackoffClockTest, BatchPathDeclaresTighterEventBound) {
  // The per-cell event reserve keys off this declaration; a batch scheme
  // regressing to the conservative bound would silently re-inflate the
  // 10^6-link memory footprint (the phase-3 RSS ceiling in bench/city_scale).
  net::Network net{expfw::video_symmetric(0.55, 0.9, 2), dcf_path_factory(false)};
  EXPECT_EQ(net.cell_scheme(0).pending_events_per_link(), 1u);
  net::Network scalar_net{expfw::video_symmetric(0.55, 0.9, 2), dcf_path_factory(true)};
  EXPECT_EQ(scalar_net.cell_scheme(0).pending_events_per_link(), 6u);
}

}  // namespace
}  // namespace rtmac::mac
