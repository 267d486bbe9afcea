// Paper-conformance suite: one test per numbered equation / definition /
// remark of the paper, asserting this implementation realizes it exactly.
// Complements the behavioural tests: here the mapping paper -> code is the
// point, so each test names its clause.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "analysis/priority_chain.hpp"
#include "core/debt.hpp"
#include "core/influence.hpp"
#include "core/mu.hpp"
#include "core/permutation.hpp"
#include "expfw/scenarios.hpp"
#include "helpers/scheme_harness.hpp"
#include "mac/centralized_scheduler.hpp"
#include "mac/dp_link_mac.hpp"
#include "mac/priority_provider.hpp"
#include "net/network.hpp"
#include "stats/deficiency.hpp"
#include "traffic/arrival_process.hpp"
#include "util/math.hpp"

namespace rtmac {
namespace {

// ---- Section II -------------------------------------------------------------

TEST(PaperConformance, SectionIIB_PacketsDroppedAtIntervalEnd) {
  // "The packets that are not delivered before their deadlines are dropped."
  test::SchemeHarness h{ProbabilityVector(1, 1.0), phy::PhyParams::video_80211a(),
                        Duration::microseconds(700), RateVector(1, 0.5)};
  const auto ctx = h.context();
  mac::CentralizedScheme ldf{ctx, mac::CentralizedParams{}, "LDF"};
  // 5 packets, 2 slots: 2 delivered, 3 dropped — the NEXT interval starts
  // from the new arrivals only.
  EXPECT_EQ(h.run_interval(ldf, {5})[0], 2);
  EXPECT_EQ(h.run_interval(ldf, {1})[0], 1);  // no leftover backlog served
}

TEST(PaperConformance, SectionIIC_TimelyThroughputEqualsDeliveryRatioForUnitArrivals) {
  // "when there is exactly one packet arrival in each interval ...
  //  timely-throughput is exactly the same as delivery ratio."
  stats::LinkStatsCollector stats{1};
  for (int k = 0; k < 10; ++k) stats.record({1}, {k % 2});
  EXPECT_DOUBLE_EQ(stats.timely_throughput(0), stats.delivery_ratio(0));
}

TEST(PaperConformance, Definition1_DeficiencyIsPositivePartOfGap) {
  stats::LinkStatsCollector stats{2};
  stats.record({1, 1}, {1, 0});
  const RateVector q{0.2, 0.7};
  // Link 0 over-delivers (gap negative -> 0); link 1 lags by 0.7.
  const auto def = stats::per_link_deficiency(stats, q);
  EXPECT_DOUBLE_EQ(def[0], 0.0);
  EXPECT_DOUBLE_EQ(def[1], 0.7);
}

// ---- Section III ------------------------------------------------------------

TEST(PaperConformance, Equation1_DebtRecursion) {
  // d_n(k+1) = d_n(k) - S_n(k) + q_n, d_n(0) = 0.
  core::DebtTracker d{{0.37}};
  double expected = 0.0;
  for (int s : {0, 1, 0, 2, 1}) {
    d.on_interval_end({s});
    expected = expected - s + 0.37;
    EXPECT_NEAR(d.debt(0), expected, 1e-12);
  }
}

TEST(PaperConformance, Definition6_ValidAndInvalidInfluenceFunctions) {
  // "f(x) = x^m with m >= 0 and f(x) = log_a x with a > 1 are valid ...
  //  f(x) = a^x with a > 1 is not."
  EXPECT_TRUE(core::check_influence_axioms(core::Influence::power(2.0)).all());
  EXPECT_TRUE(core::check_influence_axioms(core::Influence::log(10.0)).all());
  const core::Influence expo{"1.01^x", [](double x) { return std::pow(1.01, x); }};
  EXPECT_FALSE(core::check_influence_axioms(expo, /*x_max=*/1e5).shift_insensitive);
}

TEST(PaperConformance, Equation4_EldfSortsByInfluenceTimesReliability) {
  // Ordering by f(d^+) p, descending.
  test::SchemeHarness h{{0.9, 0.6, 0.3}, phy::PhyParams::video_80211a(),
                        Duration::milliseconds(20), {0.5, 0.5, 0.5}};
  const auto ctx = h.context();
  mac::CentralizedScheme eldf{ctx, mac::CentralizedParams{core::Influence::identity()},
                              "ELDF"};
  // Equal debts 0.5 each: weights d*p = (.45, .30, .15) -> sorted by p.
  h.debts().on_interval_end({0, 0, 0});
  h.run_interval(eldf, {1, 1, 1});
  EXPECT_EQ(eldf.current_ordering(), (std::vector<LinkId>{0, 1, 2}));
}

TEST(PaperConformance, Remark2_EldfWithIdentityInfluenceIsLdf) {
  // "By choosing f(x) = x, the ELDF policy becomes equivalent to LDF."
  auto run_ordering = [](const core::Influence& f) {
    test::SchemeHarness h{{0.7, 0.7}, phy::PhyParams::video_80211a(),
                          Duration::milliseconds(20), {0.9, 0.9}};
    const auto ctx = h.context();
    mac::CentralizedScheme s{ctx, mac::CentralizedParams{f}, "S"};
    h.debts().on_interval_end({0, 1});
    h.run_interval(s, {1, 1});
    return s.current_ordering();
  };
  EXPECT_EQ(run_ordering(core::Influence::identity()),
            (std::vector<LinkId>{0, 1}));  // largest debt (link 0) first
}

// ---- Section IV (Algorithm 2) ------------------------------------------------

TEST(PaperConformance, Step1_CandidateUniformOnOneToNMinusOne) {
  const mac::SharedSeed seed{12345};
  std::vector<int> hits(20, 0);
  constexpr int kK = 200000;
  for (IntervalIndex k = 0; k < kK; ++k) hits[seed.candidate(k, 20)]++;
  for (PriorityIndex m = 1; m <= 19; ++m) {
    EXPECT_NEAR(hits[m] / static_cast<double>(kK), 1.0 / 19.0, 0.005) << m;
  }
}

TEST(PaperConformance, Equation6_BackoffAssignments) {
  // sigma < C: beta = sigma-1; sigma > C+1: beta = sigma+1;
  // candidates: beta = sigma - xi.
  const std::vector<PriorityIndex> pairs{4};  // C = 4
  EXPECT_EQ(mac::dp_backoff_count(1, pairs, 0), 0);
  EXPECT_EQ(mac::dp_backoff_count(3, pairs, 0), 2);
  EXPECT_EQ(mac::dp_backoff_count(4, pairs, +1), 3);
  EXPECT_EQ(mac::dp_backoff_count(4, pairs, -1), 5);
  EXPECT_EQ(mac::dp_backoff_count(5, pairs, +1), 4);
  EXPECT_EQ(mac::dp_backoff_count(5, pairs, -1), 6);
  EXPECT_EQ(mac::dp_backoff_count(6, pairs, 0), 7);
  EXPECT_EQ(mac::dp_backoff_count(8, pairs, 0), 9);
}

TEST(PaperConformance, Example2_PriorityExchangeViaBackoff) {
  // "Suppose sigma(1) = [1,2,3,4] and sigma(2) = [1,3,2,4] ... link 2 and 3
  //  exchange priorities if beta_2 = 3 and beta_3 = 2."  (1-based links)
  const std::vector<PriorityIndex> pairs{2};  // candidates at priorities 2, 3
  // Paper's link 2 (priority 2, moving down): beta = 2 - (-1) = 3.
  EXPECT_EQ(mac::dp_backoff_count(2, pairs, -1), 3);
  // Paper's link 3 (priority 3, moving up): beta = 3 - 1 = 2.
  EXPECT_EQ(mac::dp_backoff_count(3, pairs, +1), 2);
}

TEST(PaperConformance, SectionIVC_NoControlPacketsOnlyDataAndClaims) {
  // "No control packets or control slots required": the only things ever on
  // the air are data packets and (short) empty claim packets.
  net::Network net{expfw::video_symmetric(0.5, 0.9, 91), expfw::dbdp_factory()};
  sim::Tracer tracer{1 << 20};
  net.attach_tracer(&tracer);
  net.run(100);
  const auto starts = tracer.filter(sim::TraceKind::kTxStart);
  for (const auto& e : starts) {
    const bool is_data = e.b == 0 && e.a == Duration::microseconds(330).ns();
    const bool is_claim = e.b == 1 && e.a == Duration::microseconds(70).ns();
    EXPECT_TRUE(is_data || is_claim) << e.to_string();
  }
}

TEST(PaperConformance, SectionIVC_AtMostTwoEmptyPacketsPerInterval) {
  // Overhead claim: "In each interval, there are at most two empty packets."
  auto cfg = net::symmetric_network(8, Duration::milliseconds(20),
                                    phy::PhyParams::video_80211a(), 0.9,
                                    traffic::BernoulliArrivals{0.2}, 0.5, 92);
  net::Network net{std::move(cfg), expfw::dbdp_factory()};
  std::uint64_t prev_empty = 0;
  net.add_observer([&](IntervalIndex, std::span<const int>, std::span<const int>) {
    const std::uint64_t now_empty = net.medium_counters().empty_tx;
    EXPECT_LE(now_empty - prev_empty, 2u);
    prev_empty = now_empty;
  });
  net.run(500);
}

TEST(PaperConformance, Equation9_TransitionProbabilityStructure) {
  // X[sigma][sigma'] = (1-mu_i) mu_j / (N-1) for adjacent transpositions.
  const std::vector<double> mu{0.2, 0.5, 0.8};
  const analysis::PriorityChain chain{mu};
  const auto id = core::Permutation::identity(3);
  auto swapped = id;
  swapped.swap_adjacent_priorities(2);  // links at priorities 2,3 = links 1,2
  EXPECT_NEAR(chain.transition_matrix()[id.rank()][swapped.rank()],
              (1.0 - mu[1]) * mu[2] / 2.0, 1e-12);
}

TEST(PaperConformance, Equation10_ProductFormStationaryLaw) {
  // pi*(sigma) ∝ prod (mu_n/(1-mu_n))^(N - sigma_n); verify a ratio directly.
  const std::vector<double> mu{0.3, 0.6};
  const analysis::PriorityChain chain{mu};
  const auto pi = chain.stationary_analytic();
  const auto id = core::Permutation::identity(2);
  auto sw = id;
  sw.swap_adjacent_priorities(1);
  // pi(id)/pi(sw) = odds(link0)/odds(link1) (eq. 13 with m = 1).
  const double odds0 = mu[0] / (1.0 - mu[0]);
  const double odds1 = mu[1] / (1.0 - mu[1]);
  EXPECT_NEAR(pi[id.rank()] / pi[sw.rank()], odds0 / odds1, 1e-12);
}

// ---- Section V ----------------------------------------------------------------

TEST(PaperConformance, Equation14_MuFormula) {
  const core::DebtMu m{expfw::paper_influence(), expfw::kPaperR};
  for (double d : {0.0, 0.5, 3.0, 42.0}) {
    for (double p : {0.5, 0.7, 0.8}) {
      const double w = std::log(std::max(1.0, 100.0 * (d + 1.0))) * p;
      EXPECT_NEAR(m.mu(d, p), std::exp(w) / (10.0 + std::exp(w)), 1e-12);
    }
  }
}

TEST(PaperConformance, Equation15_QuasiStationaryLawFromSubstitution) {
  // Substituting eq. (14) into eq. (10) must give eq. (15): already the
  // FixedMuChainMatchesDbdpLawThroughOdds test at N=4; here N=3 with the
  // paper's exact f and R.
  const core::DebtMu formula{expfw::paper_influence(), expfw::kPaperR};
  const std::vector<double> debts{0.0, 2.5, 7.0};
  const ProbabilityVector p{0.7, 0.7, 0.7};
  std::vector<double> mu(3);
  for (std::size_t n = 0; n < 3; ++n) mu[n] = formula.mu(debts[n], p[n]);
  const analysis::PriorityChain chain{mu};
  EXPECT_LT(total_variation(chain.stationary_analytic(),
                            analysis::dbdp_stationary_law(formula, debts, p)),
            1e-9);
}

// ---- Section VI ----------------------------------------------------------------

TEST(PaperConformance, SectionVIA_VideoArrivalModel) {
  // "uniformly distributed within {1,...,6} with probability alpha_n and 0
  //  with probability 1 - alpha_n ... lambda_n = 3.5 alpha_n".
  const traffic::UniformBurstyArrivals a{0.62};
  EXPECT_DOUBLE_EQ(a.mean(), 3.5 * 0.62);
  const auto pmf = a.pmf();
  EXPECT_NEAR(pmf[0], 0.38, 1e-12);
  for (int v = 1; v <= 6; ++v) {
    EXPECT_NEAR(pmf[static_cast<std::size_t>(v)], 0.62 / 6.0, 1e-12);
  }
}

TEST(PaperConformance, SectionVIA_SixtyTransmissionsPerInterval) {
  // "Under LDF, there are up to 60 transmissions in each interval."
  test::SchemeHarness h{ProbabilityVector(20, 1.0), phy::PhyParams::video_80211a(),
                        Duration::milliseconds(20), RateVector(20, 0.9)};
  const auto ctx = h.context();
  mac::CentralizedScheme ldf{ctx, mac::CentralizedParams{}, "LDF"};
  const auto delivered = h.run_interval(ldf, std::vector<int>(20, 6));
  EXPECT_EQ(std::accumulate(delivered.begin(), delivered.end(), 0), 60);
}

TEST(PaperConformance, SectionVIB_SixteenTransmissionsPerControlInterval) {
  // "under LDF there are 16 available transmissions in each interval".
  test::SchemeHarness h{ProbabilityVector(10, 1.0), phy::PhyParams::control_80211a(),
                        Duration::milliseconds(2), RateVector(10, 0.99)};
  const auto ctx = h.context();
  mac::CentralizedScheme ldf{ctx, mac::CentralizedParams{}, "LDF"};
  const auto delivered = h.run_interval(ldf, std::vector<int>(10, 2));
  EXPECT_EQ(std::accumulate(delivered.begin(), delivered.end(), 0), 16);
}

TEST(PaperConformance, SectionVIB_DbdpLosesAtMostTwoTransmissionsToOverhead) {
  // "under the proposed DB-DP algorithm, there might be 1 or 2 fewer
  //  transmissions in each interval due to ... backoff slots and empty
  //  packets" — saturate the network and count data transmissions.
  auto cfg = net::symmetric_network(10, Duration::milliseconds(2),
                                    phy::PhyParams::control_80211a(), 0.9,
                                    traffic::ConstantArrivals{2}, 0.5, 93);
  net::Network net{std::move(cfg), expfw::dbdp_factory()};
  constexpr IntervalIndex kIntervals = 300;
  net.run(kIntervals);
  const double tx_per_interval =
      static_cast<double>(net.medium_counters().data_tx) / kIntervals;
  EXPECT_GE(tx_per_interval, 14.0);
  EXPECT_LE(tx_per_interval, 16.0);
}

}  // namespace
}  // namespace rtmac
