// rtmac_sim — configurable command-line front end to the whole library.
//
//   $ ./rtmac_sim --scheme dbdp --links 20 --profile video --alpha 0.55
//                 --rho 0.9 --p 0.7 --intervals 2000 --seed 1 [--pairs 4]
//                 [--learned-p] [--csv out.csv] [--metrics-out DIR]
//                 [--trace-out trace.json]             (one line in the shell)
//
// Profiles: video (bursty U{1..6}, 20 ms deadline) | control (Bernoulli,
// 2 ms deadline). Schemes: dbdp | ldf | eldf | fcsma | dcf | static.
// Prints the run summary (deficiency, per-link stats, channel accounting)
// and optionally a per-link CSV. --trace-out writes a Chrome trace-event
// timeline of the whole run (open it at https://ui.perfetto.dev);
// --metrics-out writes JSONL metrics + an engine profile under DIR.
#include <fstream>
#include <iostream>
#include <memory>

#include "expfw/observe.hpp"
#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "stats/deficiency.hpp"
#include "stats/fairness.hpp"
#include "traffic/arrival_process.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

void usage() {
  std::cout <<
      "usage: rtmac_sim [--scheme dbdp|ldf|eldf|fcsma|dcf|static]\n"
      "                 [--profile video|control] [--links N] [--alpha A | --lambda L]\n"
      "                 [--rho R] [--p P] [--intervals K] [--seed S]\n"
      "                 [--pairs k] [--learned-p] [--csv FILE]\n"
      "                 [--metrics-out DIR] [--trace-out FILE]\n"
      "                 [--metrics-stream FILE] [--stream-every N]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rtmac;
  const ArgParser args{argc, argv};
  const std::vector<std::string> known{"scheme",    "profile", "links", "alpha",
                                       "lambda",    "rho",     "p",     "intervals",
                                       "seed",      "pairs",   "learned-p", "csv",
                                       "metrics-out", "trace-out", "metrics-stream",
                                       "stream-every", "help"};
  if (args.has("help")) {
    usage();
    return 0;
  }
  for (const auto& f : args.unknown_flags(known)) {
    std::cerr << "unknown flag --" << f << "\n";
    usage();
    return 2;
  }

  const std::string scheme_name = args.get("scheme", std::string{"dbdp"});
  const std::string profile = args.get("profile", std::string{"video"});
  const auto links = static_cast<std::size_t>(args.get("links", std::int64_t{20}));
  const double rho = args.get("rho", 0.9);
  const double p = args.get("p", 0.7);
  const auto intervals = static_cast<IntervalIndex>(args.get("intervals", std::int64_t{2000}));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  const auto pairs = static_cast<int>(args.get("pairs", std::int64_t{1}));

  net::NetworkConfig cfg;
  if (profile == "video") {
    const double alpha = args.get("alpha", 0.55);
    cfg = net::symmetric_network(links, Duration::milliseconds(20),
                                 phy::PhyParams::video_80211a(), p,
                                 traffic::UniformBurstyArrivals{alpha}, rho, seed);
  } else if (profile == "control") {
    const double lambda = args.get("lambda", 0.78);
    cfg = net::symmetric_network(links, Duration::milliseconds(2),
                                 phy::PhyParams::control_80211a(), p,
                                 traffic::BernoulliArrivals{lambda}, rho, seed);
  } else {
    std::cerr << "unknown profile '" << profile << "'\n";
    return 2;
  }

  mac::SchemeFactory factory;
  if (scheme_name == "dbdp") {
    factory = args.has("learned-p") ? expfw::dbdp_estimated_p_factory()
              : pairs > 1           ? expfw::dbdp_multipair_factory(pairs)
                                    : expfw::dbdp_factory();
  } else if (scheme_name == "ldf") {
    factory = expfw::ldf_factory();
  } else if (scheme_name == "eldf") {
    factory = expfw::eldf_factory(expfw::paper_influence());
  } else if (scheme_name == "fcsma") {
    factory = expfw::fcsma_factory();
  } else if (scheme_name == "dcf") {
    factory = expfw::dcf_factory();
  } else if (scheme_name == "static") {
    factory = expfw::dp_static_priority_factory();
  } else {
    std::cerr << "unknown scheme '" << scheme_name << "'\n";
    return 2;
  }

  net::Network network{std::move(cfg), factory};
  expfw::RunObserver observer{
      args.get("metrics-out", std::string{}), args.get("trace-out", std::string{}),
      args.get("metrics-stream", std::string{}),
      static_cast<std::uint64_t>(args.get("stream-every", std::int64_t{10}))};
  observer.attach(network, scheme_name);
  network.run(intervals);
  if (!observer.finish()) return 1;

  const auto q = network.config().requirements.q();
  const auto& counters = network.medium_counters();
  const auto tputs = network.stats().timely_throughputs();

  std::cout << "scheme: " << network.cell_scheme(0).name() << "  links: " << links
            << "  profile: " << profile << "  intervals: " << intervals << " ("
            << network.now().seconds_f() << " s simulated)\n\n";
  std::cout << "total timely-throughput deficiency: " << network.total_deficiency() << "\n";
  std::cout << "Jain fairness (timely-throughput):  " << stats::jain_index(tputs) << "\n";
  std::cout << "channel: " << counters.data_tx << " data tx, " << counters.empty_tx
            << " claim tx, " << counters.collisions << " collisions, "
            << counters.channel_losses << " channel losses, busy "
            << 100.0 * counters.busy_time.seconds_f() /
                   network.now().seconds_f()
            << "%\n\n";

  TablePrinter table{{"link", "q_n", "timely tput", "delivery ratio", "airtime share"}};
  const double sim_seconds = network.now().seconds_f();
  for (LinkId n = 0; n < links; ++n) {
    table.add_row({TablePrinter::num(static_cast<std::int64_t>(n)),
                   TablePrinter::num(q[n]), TablePrinter::num(tputs[n]),
                   TablePrinter::num(network.stats().delivery_ratio(n)),
                   TablePrinter::num(
                       network.link_counters(n).airtime.seconds_f() / sim_seconds)});
  }
  table.print(std::cout);

  if (args.has("csv")) {
    const std::string path = args.get("csv", std::string{});
    std::ofstream file{path};
    if (!file) {
      std::cerr << "cannot open " << path << "\n";
      return 1;
    }
    CsvWriter csv{file};
    csv.header({"link", "q", "timely_throughput", "delivery_ratio"});
    for (LinkId n = 0; n < links; ++n) {
      csv.field(static_cast<std::int64_t>(n))
          .field(q[n])
          .field(tputs[n])
          .field(network.stats().delivery_ratio(n));
      csv.end_row();
    }
    std::cout << "\nper-link CSV written to " << path << "\n";
  }
  return 0;
}
