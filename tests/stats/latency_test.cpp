#include "stats/latency.hpp"

#include <gtest/gtest.h>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "traffic/arrival_process.hpp"

namespace rtmac::stats {
namespace {

TEST(LatencySampleTest, MeanMaxQuantiles) {
  LatencySample s;
  for (int us : {10, 20, 30, 40}) s.add(Duration::microseconds(us));
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.mean(), Duration::microseconds(25));
  EXPECT_EQ(s.max(), Duration::microseconds(40));
  EXPECT_EQ(s.quantile(0.0), Duration::microseconds(10));
  EXPECT_EQ(s.quantile(0.5), Duration::microseconds(20));
  EXPECT_EQ(s.quantile(0.75), Duration::microseconds(30));
  EXPECT_EQ(s.quantile(1.0), Duration::microseconds(40));
}

TEST(LatencySampleTest, EmptySampleSafeAccessors) {
  const LatencySample s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), Duration{});
  EXPECT_EQ(s.max(), Duration{});
}

TEST(DeliveryLatencyTest, SingleLinkBackToBack) {
  // p = 1, one link, 2 packets per interval: deliveries complete at 330us
  // and 660us into every interval.
  auto cfg = net::symmetric_network(1, Duration::milliseconds(20),
                                    phy::PhyParams::video_80211a(), 1.0,
                                    traffic::ConstantArrivals{2}, 0.9, 71);
  net::Network net{std::move(cfg), expfw::ldf_factory()};
  sim::Tracer tracer;
  net.attach_tracer(&tracer);
  net.run(5);
  const auto latencies = delivery_latencies(tracer, Duration::milliseconds(20));
  ASSERT_EQ(latencies.count(), 10u);
  EXPECT_EQ(latencies.quantile(0.0), Duration::microseconds(330));
  EXPECT_EQ(latencies.max(), Duration::microseconds(660));
}

TEST(DeliveryLatencyTest, AllWithinDeadline) {
  // Hard invariant of the model: every delivered packet's latency is <= T.
  for (const auto& factory :
       {expfw::dbdp_factory(), expfw::ldf_factory(), expfw::fcsma_factory()}) {
    auto cfg = expfw::video_symmetric(0.5, 0.9, 72);
    net::Network net{std::move(cfg), factory};
    sim::Tracer tracer{1 << 20};
    net.attach_tracer(&tracer);
    net.run(50);
    const auto latencies = delivery_latencies(tracer, Duration::milliseconds(20));
    ASSERT_GT(latencies.count(), 0u);
    EXPECT_LE(latencies.max(), Duration::milliseconds(20)) << net.cell_scheme(0).name();
  }
}

TEST(DeliveryLatencyTest, EmptyPacketsExcluded) {
  // Candidates with no traffic send claims; those must not count as
  // deliveries.
  auto cfg = net::symmetric_network(2, Duration::milliseconds(20),
                                    phy::PhyParams::video_80211a(), 1.0,
                                    traffic::ConstantArrivals{0}, 0.0, 73);
  net::Network net{std::move(cfg), expfw::dbdp_factory()};
  sim::Tracer tracer;
  net.attach_tracer(&tracer);
  net.run(20);
  EXPECT_GT(tracer.count(sim::TraceKind::kTxEnd), 0u);  // claims happened
  EXPECT_EQ(delivery_latencies(tracer, Duration::milliseconds(20)).count(), 0u);
}

TEST(DeliveryLatencyTest, CentralizedFasterThanContention) {
  // LDF starts serving at t = 0 with no backoff: its median latency must
  // beat FCSMA's under identical load.
  auto median_latency = [](const mac::SchemeFactory& f) {
    auto cfg = expfw::video_symmetric(0.5, 0.9, 74);
    net::Network net{std::move(cfg), f};
    sim::Tracer tracer{1 << 20};
    net.attach_tracer(&tracer);
    net.run(100);
    return delivery_latencies(tracer, Duration::milliseconds(20)).quantile(0.5);
  };
  EXPECT_LT(median_latency(expfw::ldf_factory()), median_latency(expfw::fcsma_factory()));
}

}  // namespace
}  // namespace rtmac::stats
