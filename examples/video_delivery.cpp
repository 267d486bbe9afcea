// Real-time video delivery scenario (paper Section VI-A): 20 collocated
// links stream bursty video (U{1..6} packets per 20 ms interval with
// probability alpha) for machine vision / process surveillance. Compares
// the three schemes at one operating point and reports per-group detail.
//
//   $ ./video_delivery [alpha] [rho] [intervals]
#include <cstdlib>
#include <iostream>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rtmac;
  const double alpha = argc > 1 ? std::atof(argv[1]) : 0.55;
  const double rho = argc > 2 ? std::atof(argv[2]) : 0.9;
  const IntervalIndex intervals = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2000;

  std::cout << "Real-time video delivery: 20 links, alpha* = " << alpha << ", rho = " << rho
            << ", " << intervals << " intervals (" << intervals * 20 / 1000 << " s)\n\n";

  TablePrinter table{{"scheme", "total deficiency", "worst-link ratio", "collisions",
                      "channel busy share"}};
  for (const auto& factory :
       {expfw::ldf_factory(), expfw::dbdp_factory(), expfw::fcsma_factory(),
        expfw::dcf_factory()}) {
    net::Network net{expfw::video_symmetric(alpha, rho, 42), factory};
    net.run(intervals);
    double worst_ratio = 1.0;
    for (LinkId n = 0; n < 20; ++n) {
      worst_ratio = std::min(worst_ratio, net.stats().delivery_ratio(n));
    }
    const double busy = net.medium_counters().busy_time.seconds_f() /
                        (net.now() - TimePoint::origin()).seconds_f();
    table.add_row({net.cell_scheme(0).name(), TablePrinter::num(net.total_deficiency()),
                   TablePrinter::num(worst_ratio),
                   TablePrinter::num(static_cast<std::int64_t>(
                       net.medium_counters().collisions)),
                   TablePrinter::num(busy)});
  }
  table.print(std::cout);

  std::cout << "\nDB-DP should match LDF (zero collisions); FCSMA and DCF lose capacity\n"
               "to collisions and random-backoff overhead.\n";
  return 0;
}
