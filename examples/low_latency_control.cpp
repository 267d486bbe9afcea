// Ultra-low-latency control messaging scenario (paper Section VI-B):
// 10 sensor/actuator links exchange 100 B control packets under a 2 ms
// per-packet deadline with a 99% delivery-ratio requirement — the
// industrial-control regime that motivates decentralized operation.
//
//   $ ./low_latency_control [lambda] [intervals]
#include <cstdlib>
#include <iostream>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace rtmac;
  const double lambda = argc > 1 ? std::atof(argv[1]) : 0.78;
  const IntervalIndex intervals = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 10000;

  std::cout << "Ultra-low-latency control: 10 links, Bernoulli(" << lambda
            << ") arrivals, 2 ms deadline, rho = 0.99, " << intervals << " intervals ("
            << intervals * 2 / 1000 << " s)\n";
  std::cout << "16 transmission opportunities per interval; DB-DP loses 1-2 to "
               "backoff + priority claims\n\n";

  TablePrinter table{{"scheme", "total deficiency", "mean delivery ratio",
                      "empty packets/interval", "collisions"}};
  for (const auto& factory :
       {expfw::ldf_factory(), expfw::dbdp_factory(), expfw::fcsma_factory()}) {
    net::Network net{expfw::control_symmetric(lambda, 0.99, 77), factory};
    net.run(intervals);
    double mean_ratio = 0.0;
    for (LinkId n = 0; n < 10; ++n) mean_ratio += net.stats().delivery_ratio(n) / 10.0;
    table.add_row(
        {net.cell_scheme(0).name(), TablePrinter::num(net.total_deficiency()),
         TablePrinter::num(mean_ratio),
         TablePrinter::num(static_cast<double>(net.medium_counters().empty_tx) /
                           static_cast<double>(intervals)),
         TablePrinter::num(static_cast<std::int64_t>(net.medium_counters().collisions))});
  }
  table.print(std::cout);

  std::cout << "\nEven at a 2 ms deadline the DB-DP overhead (at most N+1 backoff slots\n"
               "of 9 us plus two 70 us empty packets per interval) stays small enough\n"
               "to track the centralized optimum.\n";
  return 0;
}
