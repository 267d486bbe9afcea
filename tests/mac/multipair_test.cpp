// Tests for the Remark 6 generalization: multiple disjoint candidate pairs
// per interval. The invariants are the same as for the single-pair
// protocol — unique backoffs (collision freedom), consistent swap commits,
// and the unchanged product-form stationary law — plus the new one: every
// interval's priority change is a product of disjoint adjacent
// transpositions anchored at the selected pairs.
#include <gtest/gtest.h>

#include <set>

#include "analysis/priority_chain.hpp"
#include "expfw/scenarios.hpp"
#include "helpers/scheme_harness.hpp"
#include "mac/dp_link_mac.hpp"
#include "mac/priority_provider.hpp"
#include "net/network.hpp"
#include "traffic/arrival_process.hpp"
#include "util/math.hpp"

namespace rtmac::mac {
namespace {

using test::SchemeHarness;

TEST(CandidateSetTest, SinglePairReducesToCandidate) {
  const SharedSeed seed{42};
  for (IntervalIndex k = 0; k < 200; ++k) {
    const auto set = seed.candidate_set(k, 20, 1);
    ASSERT_EQ(set.size(), 1u);
    EXPECT_EQ(set[0], seed.candidate(k, 20));
  }
}

TEST(CandidateSetTest, PairsAreNonConsecutiveAndInRange) {
  const SharedSeed seed{7};
  for (IntervalIndex k = 0; k < 500; ++k) {
    const auto set = seed.candidate_set(k, 20, 5);
    EXPECT_LE(set.size(), 5u);
    EXPECT_GE(set.size(), 1u);
    for (std::size_t i = 0; i < set.size(); ++i) {
      EXPECT_GE(set[i], 1u);
      EXPECT_LE(set[i], 19u);
      if (i > 0) {
        EXPECT_GE(set[i] - set[i - 1], 2u) << "pairs must be disjoint";
      }
    }
  }
}

TEST(CandidateSetTest, IdenticalAcrossDevices) {
  const SharedSeed a{99};
  const SharedSeed b{99};
  for (IntervalIndex k = 0; k < 100; ++k) {
    EXPECT_EQ(a.candidate_set(k, 12, 4), b.candidate_set(k, 12, 4));
  }
}

TEST(CandidateSetTest, RequestedCountIsReachedWhenFeasible) {
  // N = 20 always admits at least 5 disjoint pairs; greedy selection from a
  // full shuffle should regularly produce the full count.
  const SharedSeed seed{3};
  std::size_t max_seen = 0;
  for (IntervalIndex k = 0; k < 200; ++k) {
    max_seen = std::max(max_seen, seed.candidate_set(k, 20, 5).size());
  }
  EXPECT_EQ(max_seen, 5u);
}

TEST(BackoffAssignmentTest, SinglePairReducesToEquationSix) {
  // sigma < C: beta = sigma - 1; sigma > C+1: beta = sigma + 1;
  // candidates: beta = sigma - xi.
  const std::vector<PriorityIndex> pairs{5};
  EXPECT_EQ(dp_backoff_count(3, pairs, 0), 2);
  EXPECT_EQ(dp_backoff_count(8, pairs, 0), 9);
  EXPECT_EQ(dp_backoff_count(5, pairs, +1), 4);
  EXPECT_EQ(dp_backoff_count(5, pairs, -1), 6);
  EXPECT_EQ(dp_backoff_count(6, pairs, +1), 5);
  EXPECT_EQ(dp_backoff_count(6, pairs, -1), 7);
}

TEST(BackoffAssignmentTest, CandidateDetection) {
  const std::vector<PriorityIndex> pairs{2, 6};
  bool lower = false;
  EXPECT_TRUE(dp_is_candidate(2, pairs, &lower));
  EXPECT_TRUE(lower);
  EXPECT_TRUE(dp_is_candidate(3, pairs, &lower));
  EXPECT_FALSE(lower);
  EXPECT_TRUE(dp_is_candidate(7, pairs, &lower));
  EXPECT_FALSE(lower);
  EXPECT_FALSE(dp_is_candidate(1, pairs));
  EXPECT_FALSE(dp_is_candidate(4, pairs));
  EXPECT_FALSE(dp_is_candidate(8, pairs));
}

TEST(BackoffAssignmentTest, UniquenessExhaustiveOverCoinsAndPairSets) {
  // THE collision-freedom invariant: for every N <= 10, every valid
  // non-consecutive anchor set, and every coin assignment of the candidates,
  // all N links receive distinct backoff counts. Coins are enumerated
  // exhaustively per pair (each pair's two candidates have 4 combinations;
  // pairs are independent, so enumerate 4^P combinations).
  for (std::size_t n = 2; n <= 10; ++n) {
    // Enumerate all non-consecutive anchor subsets of {1..n-1} via bitmask.
    const unsigned max_mask = 1u << (n - 1);
    for (unsigned mask = 1; mask < max_mask; ++mask) {
      if ((mask & (mask << 1)) != 0) continue;  // consecutive anchors: skip
      std::vector<PriorityIndex> pairs;
      for (std::size_t b = 0; b < n - 1; ++b) {
        if (mask & (1u << b)) pairs.push_back(static_cast<PriorityIndex>(b + 1));
      }
      const std::size_t p_count = pairs.size();
      for (unsigned coins = 0; coins < (1u << (2 * p_count)); ++coins) {
        std::vector<int> xi(n + 1, 0);  // indexed by priority
        for (std::size_t i = 0; i < p_count; ++i) {
          xi[pairs[i]] = (coins >> (2 * i)) & 1 ? +1 : -1;
          xi[pairs[i] + 1] = (coins >> (2 * i + 1)) & 1 ? +1 : -1;
        }
        std::set<int> betas;
        for (PriorityIndex sigma = 1; sigma <= n; ++sigma) {
          const int beta = dp_backoff_count(sigma, pairs, xi[sigma]);
          EXPECT_GE(beta, 0);
          EXPECT_TRUE(betas.insert(beta).second)
              << "duplicate backoff " << beta << " at N=" << n << " mask=" << mask
              << " coins=" << coins;
        }
      }
    }
  }
}

TEST(BackoffAssignmentTest, BackoffBoundedByNPlusTwoPairs) {
  // Overhead bound quoted in DESIGN.md: beta <= N - 1 + 2 * pairs.
  for (std::size_t n = 2; n <= 12; ++n) {
    const std::vector<PriorityIndex> pairs =
        n >= 7 ? std::vector<PriorityIndex>{1, 3, 5} : std::vector<PriorityIndex>{1};
    for (PriorityIndex sigma = 1; sigma <= n; ++sigma) {
      for (int xi : {-1, +1, 0}) {
        if (dp_is_candidate(sigma, pairs) == (xi == 0)) continue;
        const int beta = dp_backoff_count(sigma, pairs, xi);
        EXPECT_LE(beta, static_cast<int>(n) - 1 + 2 * static_cast<int>(pairs.size()));
      }
    }
  }
}

DpLinkParams multi_params(int pairs) {
  const auto phy = phy::PhyParams::video_80211a();
  return DpLinkParams{phy.data_airtime, phy.empty_airtime, phy.backoff_slot, true, pairs};
}

TEST(MultiPairDpTest, CollisionFreeAtScale) {
  SchemeHarness h{ProbabilityVector(12, 0.7), phy::PhyParams::video_80211a(),
                  Duration::milliseconds(20), RateVector(12, 0.9)};
  const auto ctx = h.context();
  DpScheme dp{ctx, std::make_unique<FixedMuProvider>(std::vector<double>(12, 0.5)),
              multi_params(4), "DP-x4"};
  for (int k = 0; k < 300; ++k) {
    h.run_interval(dp, std::vector<int>(12, 2));
    EXPECT_TRUE(dp.priorities().valid());
  }
  EXPECT_EQ(h.medium().counters().collisions, 0u);
}

TEST(MultiPairDpTest, ChangesAreDisjointAdjacentTranspositionsAtSelectedPairs) {
  SchemeHarness h{ProbabilityVector(10, 1.0), phy::PhyParams::video_80211a(),
                  Duration::milliseconds(20), RateVector(10, 0.9), /*seed=*/5};
  const auto ctx = h.context();
  DpScheme dp{ctx, std::make_unique<FixedMuProvider>(std::vector<double>(10, 0.5)),
              multi_params(3), "DP-x3"};
  const SharedSeed seed{mix64(5, 0x5EEDC0DE)};  // mirrors DpScheme's internal seed
  core::Permutation prev = dp.priorities();
  int multi_swap_intervals = 0;
  for (IntervalIndex k = 0; k < 400; ++k) {
    h.run_interval(dp, std::vector<int>(10, 1));
    const core::Permutation cur = dp.priorities();
    const auto anchors = seed.candidate_set(k, 10, 3);
    // Decompose the change: each differing link must belong to a selected
    // pair, and the pair's two links must have exchanged priorities.
    std::set<PriorityIndex> anchor_set(anchors.begin(), anchors.end());
    const auto diff = prev.symmetric_difference(cur);
    EXPECT_EQ(diff.size() % 2, 0u);
    std::set<PriorityIndex> seen_anchors;
    for (LinkId n : diff) {
      const PriorityIndex lo = std::min(prev.priority_of(n), cur.priority_of(n));
      const PriorityIndex hi = std::max(prev.priority_of(n), cur.priority_of(n));
      EXPECT_EQ(hi, lo + 1) << "non-adjacent move";
      EXPECT_TRUE(anchor_set.contains(lo)) << "move outside the selected pairs";
      seen_anchors.insert(lo);
    }
    EXPECT_EQ(2 * seen_anchors.size(), diff.size());
    if (seen_anchors.size() >= 2) ++multi_swap_intervals;
    prev = cur;
  }
  // With 3 pairs and mu = 0.5, simultaneous swaps at distinct pairs must
  // actually occur (p ~ 3 * 0.25^2-ish per interval; 400 draws suffice).
  EXPECT_GT(multi_swap_intervals, 0);
}

TEST(MultiPairDpTest, StationaryLawUnchangedByMultiPairDynamics) {
  // Remark 6's point: adding disjoint pairs accelerates mixing but keeps
  // the eq. (10) stationary law. Validate empirically at N = 4, 2 pairs.
  const std::vector<double> mu{0.3, 0.45, 0.6, 0.75};
  auto cfg = net::symmetric_network(4, Duration::milliseconds(2),
                                    phy::PhyParams::control_80211a(), 0.9,
                                    traffic::BernoulliArrivals{0.3}, 0.5, 31337);
  net::Network network{std::move(cfg), expfw::dp_fixed_mu_factory(mu, /*pairs=*/2)};
  auto* dp = dynamic_cast<const DpScheme*>(&network.cell_scheme(0));
  ASSERT_NE(dp, nullptr);
  network.run(2000);
  std::vector<double> counts(24, 0.0);
  network.add_observer([&](IntervalIndex, std::span<const int>, std::span<const int>) {
    counts[dp->priorities().rank()] += 1.0;
  });
  network.run(60000);
  normalize(counts);
  const analysis::PriorityChain chain{mu};
  EXPECT_LT(total_variation(counts, chain.stationary_analytic()), 0.04);
}

TEST(MultiPairDpTest, FasterConvergenceThanSinglePair) {
  // The reason Remark 6 exists: more pairs, faster spreading. Compare the
  // deficiency of the initially-bottom link after a short horizon.
  auto run = [&](int pairs) {
    net::Network net{expfw::video_symmetric(0.55, 0.9, 55),
                     pairs == 1 ? expfw::dbdp_factory() : expfw::dbdp_multipair_factory(pairs)};
    net.run(800);
    return net.total_deficiency();
  };
  const double one = run(1);
  const double four = run(4);
  EXPECT_LT(four, one + 0.05);  // never meaningfully worse...
  EXPECT_LT(four, 0.75 * one + 0.1);  // ...and materially better in transient
}

TEST(MultiPairDpTest, DeliversEverythingUnderLightLoadReliableChannel) {
  SchemeHarness h{ProbabilityVector(6, 1.0), phy::PhyParams::video_80211a(),
                  Duration::milliseconds(20), RateVector(6, 0.9)};
  const auto ctx = h.context();
  DpScheme dp{ctx, std::make_unique<FixedMuProvider>(std::vector<double>(6, 0.5)),
              multi_params(2), "DP-x2"};
  for (int k = 0; k < 30; ++k) {
    EXPECT_EQ(h.run_interval(dp, std::vector<int>(6, 1)), std::vector<int>(6, 1));
  }
}

}  // namespace
}  // namespace rtmac::mac
