// Property-based validations (parameterized sweeps) tying the simulator to
// the paper's exact theory: detailed balance, the stationary law of the
// priority chain, eq. (9) swap rates, and exact-vs-simulated throughput.
#include <gtest/gtest.h>

#include <map>
#include <numeric>

#include "analysis/priority_chain.hpp"
#include "analysis/priority_evaluator.hpp"
#include "expfw/scenarios.hpp"
#include "helpers/scheme_harness.hpp"
#include "mac/centralized_scheduler.hpp"
#include "mac/dp_link_mac.hpp"
#include "net/network.hpp"
#include "traffic/arrival_process.hpp"
#include "util/math.hpp"

namespace rtmac {
namespace {

// ---- Detailed balance across network sizes and seeds ------------------------

class DetailedBalanceTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DetailedBalanceTest, Equation10SatisfiesDetailedBalance) {
  const auto [n, seed] = GetParam();
  Rng rng{static_cast<std::uint64_t>(seed)};
  std::vector<double> mu(static_cast<std::size_t>(n));
  for (auto& m : mu) m = rng.uniform_real(0.02, 0.98);
  const analysis::PriorityChain chain{mu};
  const auto pi = chain.stationary_analytic();
  EXPECT_LT(chain.detailed_balance_residual(pi), 1e-12);
  // And the numeric fixed point agrees.
  EXPECT_LT(total_variation(pi, chain.stationary_numeric()), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(SizesAndSeeds, DetailedBalanceTest,
                         ::testing::Combine(::testing::Values(2, 3, 4, 5),
                                            ::testing::Values(1, 2, 3, 4, 5)));

// ---- Empirical priority-chain law vs eq. (10) -------------------------------

class StationaryLawTest : public ::testing::TestWithParam<int> {};

TEST_P(StationaryLawTest, SimulatedChainMatchesAnalyticLaw) {
  // Run the REAL protocol (backoff, carrier sensing, empty packets) with
  // fixed coin biases and compare the empirical distribution over priority
  // permutations against eq. (10).
  const int seed = GetParam();
  const std::size_t n = 3;
  std::vector<double> mu{0.3, 0.5, 0.7};

  auto cfg = net::symmetric_network(n, Duration::milliseconds(2),
                                    phy::PhyParams::control_80211a(), 0.9,
                                    traffic::BernoulliArrivals{0.3}, 0.5,
                                    static_cast<std::uint64_t>(seed));
  net::Network network{std::move(cfg), expfw::dp_fixed_mu_factory(mu)};
  auto* dp = dynamic_cast<const mac::DpScheme*>(&network.cell_scheme(0));
  ASSERT_NE(dp, nullptr);

  constexpr IntervalIndex kBurnIn = 2000;
  constexpr IntervalIndex kSample = 30000;
  network.run(kBurnIn);
  std::vector<double> counts(6, 0.0);
  network.add_observer([&](IntervalIndex, std::span<const int>, std::span<const int>) {
    counts[dp->priorities().rank()] += 1.0;
  });
  network.run(kSample);
  normalize(counts);

  const analysis::PriorityChain chain{mu};
  const auto pi = chain.stationary_analytic();
  EXPECT_LT(total_variation(counts, pi), 0.03)
      << "empirical law diverges from eq. (10)";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StationaryLawTest, ::testing::Values(101, 202, 303));

// ---- Eq. (9): swap probability of the two-link chain -------------------------

class SwapRateTest : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(SwapRateTest, EmpiricalSwapRateMatchesEquation9) {
  const auto [mu_lo, mu_hi] = GetParam();
  auto cfg = net::symmetric_network(2, Duration::milliseconds(2),
                                    phy::PhyParams::control_80211a(), 0.9,
                                    traffic::ConstantArrivals{1}, 0.5, 424242);
  net::Network network{std::move(cfg), expfw::dp_fixed_mu_factory({mu_lo, mu_hi})};
  auto* dp = dynamic_cast<const mac::DpScheme*>(&network.cell_scheme(0));
  ASSERT_NE(dp, nullptr);

  // Count transitions out of each of the two states.
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> transitions;
  std::uint64_t prev = dp->priorities().rank();
  network.add_observer([&](IntervalIndex, std::span<const int>, std::span<const int>) {
    const std::uint64_t cur = dp->priorities().rank();
    transitions[{prev, cur}]++;
    prev = cur;
  });
  constexpr int kIntervals = 20000;
  network.run(kIntervals);

  const auto id_rank = core::Permutation::identity(2).rank();
  const auto sw_rank = core::Permutation::from_priorities({2, 1}).rank();
  const int from_id = transitions[{id_rank, id_rank}] + transitions[{id_rank, sw_rank}];
  const int from_sw = transitions[{sw_rank, sw_rank}] + transitions[{sw_rank, id_rank}];
  // From identity: link0 holds priority 1 (lower candidate), link1 priority 2.
  // Swap prob = (1 - mu0) * mu1. From swapped: (1 - mu1) * mu0.
  if (from_id > 500) {
    const double rate = static_cast<double>(transitions[{id_rank, sw_rank}]) / from_id;
    EXPECT_NEAR(rate, (1.0 - mu_lo) * mu_hi, 0.03);
  }
  if (from_sw > 500) {
    const double rate = static_cast<double>(transitions[{sw_rank, id_rank}]) / from_sw;
    EXPECT_NEAR(rate, (1.0 - mu_hi) * mu_lo, 0.03);
  }
}

INSTANTIATE_TEST_SUITE_P(Biases, SwapRateTest,
                         ::testing::Values(std::pair{0.5, 0.5}, std::pair{0.3, 0.7},
                                           std::pair{0.2, 0.4}, std::pair{0.8, 0.6}));

// ---- Exact evaluator vs simulated centralized scheduler ----------------------

struct EvalCase {
  double p;
  int arrivals_per_link;
  std::int64_t interval_us;
};

class EvaluatorVsSimTest : public ::testing::TestWithParam<EvalCase> {};

TEST_P(EvaluatorVsSimTest, CentralizedSimulationMatchesExactExpectation) {
  const auto c = GetParam();
  const std::size_t n = 3;
  const auto phy = phy::PhyParams::video_80211a();
  const int slots = static_cast<int>(
      Duration::microseconds(c.interval_us).floor_div(phy.data_airtime));

  test::SchemeHarness h{ProbabilityVector(n, c.p), phy,
                        Duration::microseconds(c.interval_us), RateVector(n, 0.5), 777};
  const auto ctx = h.context();
  mac::CentralizedScheme ldf{ctx, mac::CentralizedParams{}, "LDF"};

  // Debts stay zero (the harness never updates them), so the ordering is the
  // identity every interval — matching evaluate_fixed on that ordering.
  const std::vector<int> arrivals(n, c.arrivals_per_link);
  std::vector<double> sums(n, 0.0);
  constexpr int kIntervals = 4000;
  for (int k = 0; k < kIntervals; ++k) {
    const auto d = h.run_interval(ldf, arrivals);
    for (std::size_t i = 0; i < n; ++i) sums[i] += d[i];
  }

  analysis::PriorityEvaluator eval{ProbabilityVector(n, c.p), slots};
  const auto exact = eval.evaluate_fixed({0, 1, 2}, arrivals);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(sums[i] / kIntervals, exact.expected_deliveries[i], 0.05)
        << "link " << i << " p=" << c.p;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, EvaluatorVsSimTest,
                         ::testing::Values(EvalCase{1.0, 2, 2000}, EvalCase{0.7, 2, 2000},
                                           EvalCase{0.5, 3, 3000}, EvalCase{0.9, 4, 2500}));

// ---- Feasibility dichotomy ---------------------------------------------------

class FeasibilityDichotomyTest : public ::testing::TestWithParam<double> {};

TEST_P(FeasibilityDichotomyTest, DeficiencyVanishesIffInsideRegion) {
  const double alpha = GetParam();
  const double util = core::workload_utilization(
      RateVector(20, 3.5 * alpha * 0.9), ProbabilityVector(20, 0.7), 60);
  net::Network net{expfw::video_symmetric(alpha, 0.9, 31), expfw::dbdp_factory()};
  net.run(2500);
  // Comfortably inside the region: the deficiency transient must have
  // decayed. Comfortably outside: it must stay macroscopically positive.
  // Loads near the boundary (0.8 <= util <= 1.1) are not asserted — finite
  // horizons cannot classify them reliably.
  if (util < 0.8) {
    EXPECT_LT(net.total_deficiency(), 0.15) << "alpha=" << alpha << " util=" << util;
  } else if (util > 1.1) {
    EXPECT_GT(net.total_deficiency(), 0.3) << "alpha=" << alpha << " util=" << util;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, FeasibilityDichotomyTest,
                         ::testing::Values(0.3, 0.45, 0.75, 0.9));

}  // namespace
}  // namespace rtmac
