// End-to-end behaviour of full networks: conservation laws, capacity
// ordering across schemes, and the feasibility-optimality claims at
// experiment scale (scaled-down grids to keep test runtime modest).
#include <gtest/gtest.h>

#include <numeric>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "stats/deficiency.hpp"

namespace rtmac {
namespace {

using expfw::control_symmetric;
using expfw::video_symmetric;

TEST(IntegrationTest, DeliveriesNeverExceedArrivals) {
  // Enforced per interval by LinkStatsCollector's internal assert, checked
  // here across schemes on an unreliable channel.
  for (const auto& factory :
       {expfw::dbdp_factory(), expfw::ldf_factory(), expfw::fcsma_factory()}) {
    net::Network net{video_symmetric(0.5, 0.9, 11), factory};
    net.run(100);
    for (LinkId n = 0; n < 20; ++n) {
      EXPECT_LE(net.stats().total_delivered(n), net.stats().total_arrivals(n));
    }
  }
}

TEST(IntegrationTest, DpIsCollisionFreeAtScale) {
  net::Network net{video_symmetric(0.55, 0.9, 12), expfw::dbdp_factory()};
  net.run(300);
  EXPECT_EQ(net.medium_counters().collisions, 0u);
  EXPECT_GT(net.medium_counters().data_tx, 1000u);
}

TEST(IntegrationTest, FcsmaCollidesAtScale) {
  net::Network net{video_symmetric(0.55, 0.9, 12), expfw::fcsma_factory()};
  net.run(300);
  EXPECT_GT(net.medium_counters().collisions, 0u);
}

TEST(IntegrationTest, FeasibleLoadDrivesDeficiencyToZero) {
  // alpha = 0.4 is comfortably inside the region (utilization ~ 0.64):
  // both LDF and DB-DP must fulfil the requirement.
  for (const auto& factory : {expfw::dbdp_factory(), expfw::ldf_factory()}) {
    net::Network net{video_symmetric(0.4, 0.9, 13), factory};
    net.run(800);
    EXPECT_LT(net.total_deficiency(), 0.05) << net.cell_scheme(0).name();
  }
}

TEST(IntegrationTest, InfeasibleLoadLeavesDeficiency) {
  // alpha = 0.8 exceeds capacity (utilization ~ 1.29): nobody can fulfil it.
  for (const auto& factory : {expfw::dbdp_factory(), expfw::ldf_factory()}) {
    net::Network net{video_symmetric(0.8, 0.9, 13), factory};
    net.run(400);
    EXPECT_GT(net.total_deficiency(), 1.0) << net.cell_scheme(0).name();
  }
}

TEST(IntegrationTest, CapacityOrderingLdfGeDbdpGeFcsma) {
  // At a load near the knee the schemes order by delivered throughput:
  // the genie >= DB-DP (small backoff overhead) >= FCSMA (collisions).
  const double alpha = 0.58;
  auto run_total = [&](const mac::SchemeFactory& f) {
    net::Network net{video_symmetric(alpha, 0.9, 14), f};
    net.run(400);
    std::uint64_t total = 0;
    for (LinkId n = 0; n < 20; ++n) total += net.stats().total_delivered(n);
    return total;
  };
  const auto ldf = run_total(expfw::ldf_factory());
  const auto dbdp = run_total(expfw::dbdp_factory());
  const auto fcsma = run_total(expfw::fcsma_factory());
  EXPECT_GE(ldf, dbdp);
  EXPECT_GT(dbdp, fcsma);
}

TEST(IntegrationTest, DbdpTracksLdfClosely) {
  // The headline claim (Figs. 3-4): DB-DP achieves nearly the timely
  // throughput of the centralized optimum. DB-DP's deficiency decays more
  // slowly (the priority chain performs one adjacent swap per interval, so
  // spreading from the identity ordering takes ~N^2 intervals), so compare
  // at a horizon past that transient and with a transient allowance.
  const double alpha = 0.55;
  auto deficiency = [&](const mac::SchemeFactory& f) {
    net::Network net{video_symmetric(alpha, 0.9, 15), f};
    net.run(2500);
    return net.total_deficiency();
  };
  const double ldf = deficiency(expfw::ldf_factory());
  const double dbdp = deficiency(expfw::dbdp_factory());
  EXPECT_LT(dbdp, ldf + 1.0);
  // Sanity floor: both are fulfilling the requirement, not diverging.
  EXPECT_LT(dbdp, 1.2);
}

TEST(IntegrationTest, ControlProfileFeasibleAtPaperLoad) {
  // Fig. 9 region: lambda = 0.7, rho = 0.99 is feasible for LDF and DB-DP.
  for (const auto& factory : {expfw::dbdp_factory(), expfw::ldf_factory()}) {
    net::Network net{control_symmetric(0.7, 0.99, 16), factory};
    net.run(3000);
    EXPECT_LT(net.total_deficiency(), 0.05) << net.cell_scheme(0).name();
  }
}

TEST(IntegrationTest, AsymmetricNetworkBothGroupsServedByDbdp) {
  net::Network net{expfw::video_asymmetric(0.5, 0.9, 17), expfw::dbdp_factory()};
  net.run(600);
  const auto q = net.config().requirements.q();
  EXPECT_LT(stats::group_deficiency(net.stats(), q, expfw::asymmetric_group(1)), 0.1);
  EXPECT_LT(stats::group_deficiency(net.stats(), q, expfw::asymmetric_group(2)), 0.1);
}

TEST(IntegrationTest, StaticPriorityLowestLinkStillServed) {
  // Fig. 6 claim: under a fixed priority ordering the lowest-priority link
  // still receives nonzero timely-throughput (no complete starvation).
  net::Network net{video_symmetric(0.6, 0.9, 18), expfw::dp_static_priority_factory()};
  net.run(400);
  EXPECT_GT(net.stats().total_delivered(19), 0u);
  // And throughput is (weakly) decreasing in priority index overall:
  EXPECT_GT(net.stats().timely_throughput(0), net.stats().timely_throughput(19));
}

TEST(IntegrationTest, DcfUnderperformsDbdp) {
  const double alpha = 0.55;
  auto run_total = [&](const mac::SchemeFactory& f) {
    net::Network net{video_symmetric(alpha, 0.9, 19), f};
    net.run(300);
    std::uint64_t total = 0;
    for (LinkId n = 0; n < 20; ++n) total += net.stats().total_delivered(n);
    return total;
  };
  EXPECT_GT(run_total(expfw::dbdp_factory()), run_total(expfw::dcf_factory()));
}

TEST(IntegrationTest, ExtensionsComposeGeCorrelatedMultipair) {
  // All three extensions together: Gilbert-Elliott losses + common-shock
  // traffic + 4-pair reordering. The protocol invariants must survive the
  // composition: zero collisions, valid priorities, bounded claim overhead.
  phy::GilbertElliottParams ge{.p_good = 0.9, .p_bad = 0.3, .good_to_bad = 0.05,
                               .bad_to_good = 0.2};
  const double mean_p = ge.mean_success();  // 0.78
  auto cfg = expfw::video_symmetric(0.35, 0.9, 21);
  for (auto& p : cfg.success_prob) p = mean_p;
  cfg.channel_factory = [ge] {
    return std::make_unique<phy::GilbertElliottChannel>(
        std::vector<phy::GilbertElliottParams>(20, ge));
  };
  cfg.arrivals.clear();
  cfg.joint_arrivals =
      std::make_unique<traffic::CommonShockBurstyArrivals>(20, 0.35, 0.03);
  net::Network net{std::move(cfg), expfw::dbdp_multipair_factory(4)};
  net.run(800);
  EXPECT_EQ(net.medium_counters().collisions, 0u);
  EXPECT_LT(net.total_deficiency(), 0.5);
  // Claim overhead: at most 2 per pair per interval.
  EXPECT_LE(net.medium_counters().empty_tx, 800u * 8u);
}

TEST(IntegrationTest, IdenticalSeedsAcrossSchemesShareArrivalSequence) {
  // The arrival RNG stream is independent of the scheme, so two schemes at
  // the same seed face the identical arrival sample path — the paired
  // comparison design the figure benches rely on.
  net::Network a{video_symmetric(0.5, 0.9, 1234), expfw::ldf_factory()};
  net::Network b{video_symmetric(0.5, 0.9, 1234), expfw::fcsma_factory()};
  std::vector<int> arrivals_a;
  std::vector<int> arrivals_b;
  a.add_observer([&](IntervalIndex, std::span<const int> arr, std::span<const int>) {
    for (int x : arr) arrivals_a.push_back(x);
  });
  b.add_observer([&](IntervalIndex, std::span<const int> arr, std::span<const int>) {
    for (int x : arr) arrivals_b.push_back(x);
  });
  a.run(50);
  b.run(50);
  EXPECT_EQ(arrivals_a, arrivals_b);
}

TEST(IntegrationTest, BusyTimeNeverExceedsSimulatedTime) {
  net::Network net{video_symmetric(0.6, 0.9, 20), expfw::dbdp_factory()};
  net.run(200);
  EXPECT_LE(net.medium_counters().busy_time.ns(),
            (net.now() - TimePoint::origin()).ns());
}

}  // namespace
}  // namespace rtmac
