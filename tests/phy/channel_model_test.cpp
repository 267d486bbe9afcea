#include "phy/channel_model.hpp"

#include <gtest/gtest.h>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "traffic/arrival_process.hpp"

namespace rtmac::phy {
namespace {

TEST(StaticChannelTest, MeanSuccessReportsP) {
  StaticChannel ch{{0.7, 0.3}};
  EXPECT_DOUBLE_EQ(ch.mean_success(0), 0.7);
  EXPECT_DOUBLE_EQ(ch.mean_success(1), 0.3);
  EXPECT_EQ(ch.num_links(), 2u);
}

TEST(StaticChannelTest, EmpiricalRateMatchesP) {
  StaticChannel ch{{0.7}};
  Rng rng{5};
  int ok = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) ok += ch.attempt_succeeds(0, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ok) / kN, 0.7, 0.01);
}

TEST(GilbertElliottTest, StationaryMeanFormula) {
  // pi_bad = g2b / (g2b + b2g); mean = (1 - pi_bad) p_g + pi_bad p_b.
  GilbertElliottParams p{.p_good = 0.9, .p_bad = 0.1, .good_to_bad = 0.1, .bad_to_good = 0.3};
  const double pi_bad = 0.1 / 0.4;
  EXPECT_NEAR(p.mean_success(), 0.75 * 0.9 + pi_bad * 0.1, 1e-12);
}

TEST(GilbertElliottTest, EmpiricalRateMatchesStationaryMean) {
  GilbertElliottParams p{.p_good = 0.95, .p_bad = 0.2, .good_to_bad = 0.02, .bad_to_good = 0.1};
  GilbertElliottChannel ch{{p}};
  Rng rng{99};
  int ok = 0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) ok += ch.attempt_succeeds(0, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ok) / kN, p.mean_success(), 0.01);
}

TEST(GilbertElliottTest, LossesAreBursty) {
  // Consecutive-attempt outcomes must be positively correlated: the
  // probability of failure immediately after a failure is much higher than
  // the marginal failure rate.
  GilbertElliottParams p{.p_good = 0.98, .p_bad = 0.05, .good_to_bad = 0.01, .bad_to_good = 0.05};
  GilbertElliottChannel ch{{p}};
  Rng rng{7};
  int failures = 0;
  int fail_after_fail = 0;
  bool prev_failed = false;
  constexpr int kN = 300000;
  for (int i = 0; i < kN; ++i) {
    const bool failed = !ch.attempt_succeeds(0, rng);
    if (prev_failed) {
      if (failed) ++fail_after_fail;
    }
    if (failed) ++failures;
    prev_failed = failed;
  }
  const double marginal = static_cast<double>(failures) / kN;
  const double conditional = static_cast<double>(fail_after_fail) / failures;
  EXPECT_GT(conditional, 2.0 * marginal);
}

TEST(GilbertElliottTest, IndependentChainsPerLink) {
  GilbertElliottParams p{.p_good = 1.0, .p_bad = 0.0, .good_to_bad = 0.5, .bad_to_good = 0.5};
  GilbertElliottChannel ch{{p, p}};
  Rng rng{3};
  // Drive only link 0; link 1's state must remain Good (initial).
  for (int i = 0; i < 100; ++i) (void)ch.attempt_succeeds(0, rng);
  EXPECT_TRUE(ch.in_good_state(1));
}

TEST(GilbertElliottTest, NetworkRunsWithBurstyChannel) {
  // End-to-end: DB-DP on a GE channel whose mean matches the configured p.
  GilbertElliottParams gep{.p_good = 0.9, .p_bad = 0.2, .good_to_bad = 0.05,
                           .bad_to_good = 0.15};
  const double mean = gep.mean_success();  // = 0.725
  auto cfg = net::symmetric_network(6, Duration::milliseconds(20),
                                    PhyParams::video_80211a(), mean,
                                    traffic::UniformBurstyArrivals{0.3}, 0.9, 8);
  cfg.channel_factory = [gep] {
    return std::make_unique<GilbertElliottChannel>(
        std::vector<GilbertElliottParams>(6, gep));
  };
  net::Network net{std::move(cfg), expfw::dbdp_factory()};
  net.run(800);
  // Light load: the requirement must still be met despite burstiness.
  EXPECT_LT(net.total_deficiency(), 0.1);
  EXPECT_EQ(net.medium_counters().collisions, 0u);
}

TEST(GilbertElliottTest, MediumReportsModelMean) {
  sim::Simulator sim;
  GilbertElliottParams p{.p_good = 0.9, .p_bad = 0.1, .good_to_bad = 0.1, .bad_to_good = 0.1};
  Medium medium{sim, std::make_unique<GilbertElliottChannel>(
                         std::vector<GilbertElliottParams>{p}),
                11};
  EXPECT_NEAR(medium.success_prob(0), p.mean_success(), 1e-12);
  EXPECT_EQ(medium.num_links(), 1u);
}

}  // namespace
}  // namespace rtmac::phy
