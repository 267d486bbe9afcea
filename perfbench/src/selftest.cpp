// Self-test of the benchmark's result checks: a real LDF run must pass
// every check, and each deliberately corrupted copy of its result must
// fail the check that guards the corrupted property.
//
//   perfbench_selftest        exit 0 when every case behaves, 1 otherwise
#include <cmath>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/priority_evaluator.hpp"
#include "checks.hpp"
#include "expfw/scenarios.hpp"
#include "net/network.hpp"

namespace {

using perfbench::Outcome;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++g_failures;
}

bool mentions(const std::vector<std::string>& failures, const std::string& needle) {
  for (const std::string& f : failures) {
    if (f.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// A real run: the paper's video network under LDF, below the knee, with
/// every expectation the paper_domain workload sets for it.
Outcome real_outcome() {
  constexpr double kAlpha = 0.5;
  constexpr double kRho = 0.9;
  constexpr rtmac::IntervalIndex kIntervals = 600;
  const std::size_t links = rtmac::expfw::VideoScenario::kNumLinks;
  rtmac::net::NetworkConfig cfg = rtmac::expfw::video_symmetric(kAlpha, kRho, 7);
  const int slots = static_cast<int>(cfg.phy.transmissions_per_interval(cfg.interval_length));
  const perfbench::Domains domains = perfbench::complete_domain(links);
  perfbench::IntervalTally tally{domains, slots};
  rtmac::net::Network network{std::move(cfg), rtmac::expfw::ldf_factory()};
  network.add_observer([&tally](rtmac::IntervalIndex, std::span<const int> a,
                                std::span<const int> d) { tally.observe(a, d); });
  network.run(kIntervals);

  Outcome o;
  o.label = "selftest video LDF";
  tally.fill(o);
  for (std::size_t n = 0; n < links; ++n) {
    o.stats_arrivals.push_back(network.stats().total_arrivals(static_cast<rtmac::LinkId>(n)));
    o.stats_delivered.push_back(network.stats().total_delivered(static_cast<rtmac::LinkId>(n)));
  }
  o.stats_intervals = network.stats().intervals();
  o.medium = network.medium_counters();
  o.program_deficiency = network.total_deficiency();
  o.q.assign(links, 3.5 * kAlpha * kRho);
  std::vector<double> pmf(7, kAlpha / 6.0);
  pmf[0] = 1.0 - kAlpha;
  const rtmac::analysis::PriorityEvaluator evaluator{rtmac::ProbabilityVector(links, 0.7), slots};
  std::vector<rtmac::LinkId> order(links);
  for (std::size_t n = 0; n < links; ++n) order[n] = static_cast<rtmac::LinkId>(n);
  o.evaluator_total = evaluator.evaluate(order, std::vector<std::vector<double>>(links, pmf)).total();
  o.evaluator_match = true;
  o.collision_free = true;  // LDF never collides either
  o.requirements_met = true;
  return o;
}

struct Corruption {
  const char* what;
  const char* expected_message;
  std::function<void(Outcome&)> corrupt;
};

}  // namespace

int main() {
  const Outcome good = real_outcome();
  const std::vector<std::string> clean = perfbench::check(good);
  for (const std::string& f : clean) std::cout << "  " << f << "\n";
  expect(clean.empty(), "a real LDF run passes every check");

  const std::vector<Corruption> cases = {
      {"a (link, interval) delivering more than arrived", "delivered more than arrived",
       [](Outcome& o) { o.over_delivered = 1; }},
      {"a link's total deliveries above its arrivals", "delivered more packets than arrived",
       [](Outcome& o) { o.seen_delivered[3] = o.seen_arrivals[3] + 1; }},
      {"stats deliveries that differ from the tally", "stats deliveries differ",
       [](Outcome& o) { o.stats_delivered[0] += 1; }},
      {"stats arrivals that differ from the tally", "stats arrivals differ",
       [](Outcome& o) { o.stats_arrivals[5] -= 1; }},
      {"stats interval count that differs", "interval count differs",
       [](Outcome& o) { o.stats_intervals += 1; }},
      {"medium deliveries that differ from stats", "medium counted",
       [](Outcome& o) { o.medium.delivered += 1; }},
      {"a domain over the per-interval bound", "deliveries",
       [](Outcome& o) { o.domain_overflows = 2; }},
      {"collisions on a collision-free domain", "collisions on a complete-sensing",
       [](Outcome& o) { o.medium.collisions = 1; }},
      {"a mean above the exact optimum", "above the exact optimum",
       [](Outcome& o) { o.evaluator_total = o.mean_interval_total() - 5.0; }},
      {"LDF below the exact total", "LDF below the exact total",
       [](Outcome& o) { o.evaluator_total = o.mean_interval_total() + 5.0; }},
      {"a program deficiency that differs from the tally", "differs from tallied",
       [](Outcome& o) { o.program_deficiency += 0.5; }},
      {"a link short of its requirement inside the capacity region",
       "inside the capacity region",
       [](Outcome& o) {
         o.q[2] += 1.0;
         o.program_deficiency = o.tallied_deficiency();
       }},
  };
  for (const Corruption& c : cases) {
    Outcome bad = good;
    c.corrupt(bad);
    expect(mentions(perfbench::check(bad), c.expected_message), "detects " + std::string{c.what});
  }

  // The tally itself: an interval that delivers more than arrived, and a
  // domain that delivers more than the bound, are both counted.
  {
    const perfbench::Domains two = {{0, 0, 1}, 2};
    perfbench::IntervalTally tally{two, 3};
    const std::vector<int> arrivals = {2, 2, 1};
    const std::vector<int> delivered = {2, 2, 2};
    tally.observe(arrivals, delivered);
    Outcome o;
    tally.fill(o);
    expect(o.over_delivered == 1, "tally counts a link delivering more than arrived");
    expect(o.domain_overflows == 1, "tally counts a domain over its bound");
  }

  // Sensing domains: a hidden pair inside one component is refused.
  {
    rtmac::phy::SparseTopology topo;
    topo.num_links = 3;
    topo.conflict = {{1, 2}, {0, 2}, {0, 1}};
    topo.sense = {{1}, {0, 2}, {1}};  // 0 and 2 do not hear each other
    bool threw = false;
    try {
      (void)perfbench::sensing_domains(topo);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    expect(threw, "a sensing component that is not a clique is refused");
    const perfbench::Domains d = perfbench::sensing_domains(
        rtmac::expfw::chain_cells_topology(/*num_cells=*/4, /*cell_size=*/3));
    expect(d.count == 4 && d.of[2] == 0 && d.of[3] == 1,
           "chain cells are their own sensing domains despite the cut conflicts");
  }

  std::cout << (g_failures == 0 ? "all self-tests passed" : "self-tests FAILED") << "\n";
  return g_failures == 0 ? 0 : 1;
}
