// Theory validation (Proposition 2 / eq. 10): runs the real DP protocol
// with fixed coin biases on the event-driven simulator and compares the
// empirical distribution over priority permutations against the analytic
// product-form stationary law. Also prints the detailed-balance residual
// and the mixing profile of the exact chain.
//
// --intervals sets the SAMPLE length (burn-in scales with it).
#include <iostream>

#include "analysis/priority_chain.hpp"
#include "expfw/bench_cli.hpp"
#include "expfw/scenarios.hpp"
#include "mac/dp_link_mac.hpp"
#include "net/network.hpp"
#include "traffic/arrival_process.hpp"
#include "util/math.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rtmac;
  const auto args = expfw::parse_bench_args(argc, argv, 40000, 1000);
  const IntervalIndex sample = args.intervals;
  const IntervalIndex burn_in = std::max<IntervalIndex>(sample / 20, 50);

  std::cout << "\n=== Theory: stationary law of the priority chain (eq. 10) ===\n";
  const std::vector<double> mu{0.3, 0.5, 0.7};
  const std::size_t n = mu.size();

  auto cfg = net::symmetric_network(n, Duration::milliseconds(2),
                                    phy::PhyParams::control_80211a(), 0.9,
                                    traffic::BernoulliArrivals{0.3}, 0.5, 77);
  net::Network network{std::move(cfg), expfw::dp_fixed_mu_factory(mu)};
  auto* dp = dynamic_cast<const mac::DpScheme*>(&network.cell_scheme(0));

  network.run(burn_in);
  std::vector<double> counts(6, 0.0);
  network.add_observer([&](IntervalIndex, std::span<const int>, std::span<const int>) {
    counts[dp->priorities().rank()] += 1.0;
  });
  network.run(sample);
  normalize(counts);

  const analysis::PriorityChain chain{mu};
  const auto pi = chain.stationary_analytic();

  TablePrinter table{{"sigma", "analytic pi* (eq. 10)", "empirical (DP on simulator)"}};
  for (std::size_t a = 0; a < chain.num_states(); ++a) {
    table.add_row({chain.states()[a].to_string(), TablePrinter::num(pi[a], 5),
                   TablePrinter::num(counts[a], 5)});
  }
  table.print(std::cout);

  std::cout << "\nTV(empirical, analytic)      = " << total_variation(counts, pi) << "\n";
  std::cout << "detailed-balance residual    = " << chain.detailed_balance_residual(pi)
            << "\n";
  std::cout << "TV to stationarity (exact chain) after 10/50/200 steps: "
            << chain.tv_from_start(core::Permutation::identity(n), 10) << " / "
            << chain.tv_from_start(core::Permutation::identity(n), 50) << " / "
            << chain.tv_from_start(core::Permutation::identity(n), 200) << "\n";
  return 0;
}
