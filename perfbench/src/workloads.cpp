#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <sstream>
#include <streambuf>

#include "analysis/priority_evaluator.hpp"
#include "checks.hpp"
#include "core/requirements.hpp"
#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "obs/collect.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "probes.hpp"
#include "sim/shard_partitioner.hpp"
#include "spans.hpp"
#include "traffic/arrival_process.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using rtmac::IntervalIndex;
using rtmac::LinkId;
namespace expfw = rtmac::expfw;
namespace net = rtmac::net;
namespace obs = rtmac::obs;
namespace phy = rtmac::phy;

// ---- workload make-up --------------------------------------------------------

/// Link reliability, arrival rate and delivery ratio of the city and chain
/// workloads (control 802.11a timing, 2 ms deadline): city_scale's phase-1
/// network.
constexpr double kCityReliability = 0.7;
constexpr double kCityLambda = 0.8;
constexpr double kCityRho = 0.9;
constexpr std::size_t kLinksPerCell = 8;

/// Metrics-stream cadence of the observed chain, in intervals.
constexpr std::uint64_t kStreamEvery = 16;

/// Seconds one reference_pass_s() takes at the reference host speed: the
/// median pass over ten 20-second paper_domain processes on the 4-vCPU
/// Xeon (family 6, model 207, 2.1 GHz) KVM guest the benchmark was sized
/// on, whose passes ranged over 3.1-3.7 ms.
constexpr double kReferencePassS = 3.4e-3;

/// Reference passes per round of a host-scaled workload, spread evenly
/// over its operations (at least one after each).
constexpr std::size_t kReferencePassesPerRound = 32;

/// Measured rounds (after the warm-up round) every run completes, whatever
/// its time budget, so each median has at least this many samples.
constexpr std::size_t kMinMeasuredRounds = 3;

/// One simulated network run and what its result must satisfy.
struct OpSpec {
  std::string label;
  /// Sparse topology synthesis; empty = the paper's complete domain.
  std::function<phy::SparseTopology()> topology;
  std::function<net::NetworkConfig()> config;    
  rtmac::mac::SchemeFactory factory;
  std::size_t shards = 0;
  std::size_t shard_jobs = 0;
  IntervalIndex intervals = 0;  ///< timed intervals, after one warm-up interval
  bool observed = false;        ///< registry + stream attached, collected, exported
  double q = 0.0;               ///< required timely throughput per link
  bool collision_free = false;
  double evaluator_total = -1.0;
  bool evaluator_match = false;
  bool requirements_met = false;
};

struct Workload {
  std::vector<OpSpec> ops;
  /// Cell size and priority space DB-DP plans over on this topology.
  std::size_t dp_cell_links = 0;
  std::size_t dp_priority_space = 0;
  /// Fewest traced intervals that give net.interval_us.tail ten samples
  /// beyond its percentile.
  std::size_t min_traced_intervals = 0;
  /// Report link_intervals_per_s at the reference host speed: reference
  /// passes run after every operation, and each round's rate is scaled by
  /// how much slower or faster than kReferencePassS its passes ran. Only
  /// for single-threaded, cache-resident workloads, whose speed follows the
  /// core's as the reference kernel's does.
  bool host_scaled = false;
};

struct SchemeChoice {
  const char* name;
  rtmac::mac::SchemeFactory factory;
};

std::vector<SchemeChoice> paper_schemes() {
  return {{"LDF", expfw::ldf_factory()},
          {"DB-DP", expfw::dbdp_factory()},
          {"FCSMA", expfw::fcsma_factory()},
          {"DCF", expfw::dcf_factory()}};
}

/// Exact expected deliveries per interval of each link when `links`
/// symmetric links with arrival law `pmf` are served in priority order,
/// highest priority first.
std::vector<double> exact_priority_chain(std::size_t links, double p, int slots,
                                         const std::vector<double>& pmf) {
  const rtmac::analysis::PriorityEvaluator evaluator{rtmac::ProbabilityVector(links, p), slots};
  std::vector<LinkId> order(links);
  for (std::size_t n = 0; n < links; ++n) order[n] = static_cast<LinkId>(n);
  return evaluator.evaluate(order, std::vector<std::vector<double>>(links, pmf))
      .expected_deliveries;
}

/// Whether the symmetric requirement q lies strictly inside the feasible
/// region: every set of m links, given priority over the rest, can expect
/// more than m*q deliveries per interval. By symmetry the first m links of
/// the chain stand for every set of m links.
bool strictly_feasible(const std::vector<double>& chain, double q) {
  double delivered = 0.0;
  for (std::size_t m = 0; m < chain.size(); ++m) {
    delivered += chain[m];
    if (delivered <= static_cast<double>(m + 1) * q) return false;
  }
  return true;
}

/// paper_domain: the complete collision domain of Section VI on the legacy
/// single engine — both scenarios, below and above the knee, every scheme,
/// two seeds per point, as the figure sweeps run them.
Workload paper_domain(std::uint64_t seed) {
  struct Point {
    bool video;
    double x;  ///< alpha* (video) or lambda* (control)
  };
  constexpr Point kPoints[] = {{true, 0.5}, {true, 0.7}, {false, 0.7}, {false, 0.9}};
  constexpr int kSeedsPerPoint = 2;
  constexpr IntervalIndex kVideoIntervals = 3000;
  constexpr IntervalIndex kControlIntervals = 6000;

  Workload w;
  w.host_scaled = true;
  w.dp_cell_links = expfw::VideoScenario::kNumLinks;
  w.dp_priority_space = expfw::VideoScenario::kNumLinks;
  for (std::size_t pi = 0; pi < std::size(kPoints); ++pi) {
    const Point pt = kPoints[pi];
    const std::size_t links =
        pt.video ? expfw::VideoScenario::kNumLinks : expfw::ControlScenario::kNumLinks;
    const double p = pt.video ? expfw::VideoScenario::kReliability
                              : expfw::ControlScenario::kReliability;
    const double rho = pt.video ? 0.9 : 0.99;
    const rtmac::Duration deadline =
        pt.video ? expfw::VideoScenario::deadline() : expfw::ControlScenario::deadline();
    const phy::PhyParams phy_params =
        pt.video ? phy::PhyParams::video_80211a() : phy::PhyParams::control_80211a();
    const auto slots = static_cast<int>(phy_params.transmissions_per_interval(deadline));
    // Arrival law built here from the paper's definitions, not read back
    // from the program: video U{1..6} w.p. alpha, control Bernoulli(lambda).
    std::vector<double> pmf;
    if (pt.video) {
      pmf.assign(7, pt.x / 6.0);
      pmf[0] = 1.0 - pt.x;
    } else {
      pmf = {1.0 - pt.x, pt.x};
    }
    double mean = 0.0;
    for (std::size_t a = 0; a < pmf.size(); ++a) mean += static_cast<double>(a) * pmf[a];
    const double q = mean * rho;
    const std::vector<double> chain = exact_priority_chain(links, p, slots, pmf);
    const double total = std::accumulate(chain.begin(), chain.end(), 0.0);
    const double utilization = rtmac::core::workload_utilization(
        rtmac::RateVector(links, q), rtmac::ProbabilityVector(links, p), slots);
    const bool feasible = strictly_feasible(chain, q);
    const IntervalIndex intervals = pt.video ? kVideoIntervals : kControlIntervals;

    for (int rep = 0; rep < kSeedsPerPoint; ++rep) {
      // Common random numbers across schemes, as the figure sweeps use.
      const std::uint64_t cfg_seed = rtmac::mix64(rtmac::mix64(seed, pi), rep);
      for (const SchemeChoice& scheme : paper_schemes()) {
        OpSpec op;
        op.label = std::string{pt.video ? "video alpha=" : "control lambda="} +
                   std::to_string(pt.x).substr(0, 3) + " " + scheme.name + " rep " +
                   std::to_string(rep);
        op.config = [pt, rho, cfg_seed] {
          return pt.video ? expfw::video_symmetric(pt.x, rho, cfg_seed)
                          : expfw::control_symmetric(pt.x, rho, cfg_seed);
        };
        op.factory = scheme.factory;
        op.intervals = intervals;
        op.q = q;
        const std::string name = scheme.name;
        op.collision_free = name == "DB-DP";
        op.evaluator_total = total;
        op.evaluator_match = name == "LDF";
        // The paper's optimality claim: LDF and DB-DP fulfil every feasible
        // requirement. Utilization below 0.8 alone does not make q feasible
        // (control lambda=0.9 has utilization 0.7955 yet asks for more than
        // the exact chain total), so both conditions are required.
        op.requirements_met = (name == "LDF" || name == "DB-DP") && utilization < 0.8 && feasible;
        w.ops.push_back(std::move(op));
      }
    }
  }
  return w;
}

net::NetworkConfig city_config(std::size_t links, std::uint64_t seed) {
  return net::symmetric_network(links, rtmac::Duration::milliseconds(2),
                                phy::PhyParams::control_80211a(), kCityReliability,
                                rtmac::traffic::BernoulliArrivals{kCityLambda}, kCityRho, seed);
}

/// One unit-disk city of `cells` clusters x 8 links, one shard cell per
/// cluster (a cut-free plan).
OpSpec city_op(std::size_t cells, std::uint64_t seed, const char* scheme,
               rtmac::mac::SchemeFactory factory, std::size_t jobs, IntervalIndex intervals) {
  const std::uint64_t topo_seed = rtmac::mix64(seed, 0x70B0);
  const std::uint64_t cfg_seed = rtmac::mix64(seed, 0xC0F6);
  const std::size_t links = cells * kLinksPerCell;
  OpSpec op;
  op.label = std::string{"city "} + std::to_string(links) + " links " + scheme;
  op.topology = [cells, topo_seed] {
    return expfw::city_unit_disk_topology(cells, kLinksPerCell, topo_seed);
  };
  op.config = [links, cfg_seed] { return city_config(links, cfg_seed); };
  op.factory = std::move(factory);
  op.shards = cells;
  op.shard_jobs = jobs;
  op.intervals = intervals;
  op.q = kCityLambda * kCityRho;
  return op;
}

Workload city_dcf(std::uint64_t seed) {
  constexpr std::size_t kCells = 12500;
  Workload w;
  w.ops.push_back(city_op(kCells, seed, "DCF", expfw::dcf_factory(), /*jobs=*/2,
                          /*intervals=*/30));
  w.dp_cell_links = kLinksPerCell;
  w.dp_priority_space = kCells * kLinksPerCell;
  w.min_traced_intervals = 100;
  return w;
}

Workload city_dbdp(std::uint64_t seed) {
  constexpr std::size_t kCells = 1250;
  Workload w;
  // Two shard jobs, not one: on one job the per-second rate swung between
  // 0.8 and 1.4 M link-intervals/s within a single run; on two it held
  // within +-7%, at 2-2.5x the one-job rate.
  OpSpec op = city_op(kCells, seed, "DB-DP", expfw::dbdp_factory(), /*jobs=*/2,
                      /*intervals=*/200);
  op.collision_free = true;  // every cluster is one complete-sensing domain
  w.ops.push_back(std::move(op));
  w.dp_cell_links = kLinksPerCell;
  w.dp_priority_space = kCells * kLinksPerCell;
  w.min_traced_intervals = 100;
  return w;
}

Workload cut_chain_observed(std::uint64_t seed) {
  constexpr std::size_t kCells = 256;
  const std::uint64_t cfg_seed = rtmac::mix64(seed, 0xC4A1);
  Workload w;
  OpSpec op;
  op.label = "chain 2048 links FCSMA observed";
  op.topology = [] { return expfw::chain_cells_topology(kCells, kLinksPerCell); };
  op.config = [cfg_seed] { return city_config(kCells * kLinksPerCell, cfg_seed); };
  op.factory = expfw::fcsma_factory();
  op.shards = kCells;
  // One job: the groups run serially on the calling thread, through the
  // same coordinator barriers and mailboxes. On two jobs every barrier is
  // a thread hand-off, and the rate spread 16-23% over ten processes.
  op.shard_jobs = 1;
  op.intervals = 80;
  op.observed = true;
  op.q = kCityLambda * kCityRho;
  w.ops.push_back(std::move(op));
  w.dp_cell_links = kLinksPerCell;
  w.dp_priority_space = kCells * kLinksPerCell;
  w.min_traced_intervals = 100;
  w.host_scaled = true;
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_domain") return paper_domain(seed);
  if (name == "city_dcf") return city_dcf(seed);
  if (name == "city_dbdp") return city_dbdp(seed);
  if (name == "cut_chain_observed") return cut_chain_observed(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---- one operation -------------------------------------------------------------

/// Stream sink that keeps only a byte count: the serialisation work is
/// measured, the disk never is.
class CountingSink final : public obs::StreamSink {
 public:
  CountingSink() : out_{&buf_} {}
  [[nodiscard]] std::ostream& stream() override { return out_; }
  [[nodiscard]] std::uint64_t bytes() const { return buf_.bytes; }

 private:
  struct Buf final : std::streambuf {
    std::uint64_t bytes = 0;
    int overflow(int c) override {
      if (c == traits_type::eof()) return 0;
      ++bytes;
      return c;
    }
    std::streamsize xsputn(const char*, std::streamsize n) override {
      bytes += static_cast<std::uint64_t>(n);
      return n;
    }
  };
  Buf buf_;
  std::ostream out_;
};

/// Everything one network run keeps alive; the network is declared last so
/// it is destroyed before the observer state and registry it points at.
struct LiveRun {
  Domains domains;
  std::unique_ptr<IntervalTally> tally;
  std::unique_ptr<obs::MetricsRegistry> registry;
  CountingSink stream;
  std::unique_ptr<net::Network> network;
};

struct CollectResult {
  std::size_t instruments = 0;
  std::uint64_t export_bytes = 0;
};

struct OpResult {
  Outcome outcome;
  std::vector<std::string> failures;
  double setup_s = 0.0;
  double run_s = 0.0;
  double link_intervals = 0.0;  ///< timed links x intervals
  std::uint64_t events = 0;
  phy::MediumCounters medium;
  std::uint64_t coordinator_rounds = 0;
  net::Network::MemoryBreakdown memory;
  CollectResult collected;  ///< observed operations only
};

CollectResult collect_and_export(LiveRun& live, SpanLog& log) {
  obs::MetricsRegistry fresh;
  obs::MetricsRegistry& registry = live.registry ? *live.registry : fresh;
  {
    SpanLog::Scope span{log, "obs.collect"};
    obs::collect_network_metrics(registry, *live.network);
  }
  CountingSink out;
  {
    SpanLog::Scope span{log, "obs.export"};
    registry.write_jsonl(out.stream());
  }
  return CollectResult{registry.size(), out.bytes()};
}

void run_intervals(net::Network& network, IntervalIndex count, SpanLog& log) {
  if (!log.enabled()) {
    network.run(count);
    return;
  }
  for (IntervalIndex i = 0; i < count; ++i) {
    SpanLog::Scope span{log, "net.run"};
    network.run(1);
  }
}

/// Runs one operation. When `keep` is non-null the finished network is
/// handed back through it instead of being destroyed.
OpResult run_operation(const OpSpec& spec, SpanLog& log, std::unique_ptr<LiveRun>* keep) {
  OpResult r;
  auto live = std::make_unique<LiveRun>();
  Clock::time_point t0 = Clock::now();
  std::optional<phy::SparseTopology> topology;
  net::NetworkConfig cfg;
  {
    SpanLog::Scope span{log, "expfw.topology"};
    if (spec.topology) topology = spec.topology();
    cfg = spec.config();
  }
  r.setup_s = seconds_since(t0);

  const std::int64_t bound = cfg.phy.transmissions_per_interval(cfg.interval_length);
  {
    SpanLog::Scope span{log, "bench.oracle"};
    live->domains = topology ? sensing_domains(*topology) : complete_domain(cfg.num_links());
    live->tally = std::make_unique<IntervalTally>(live->domains, bound);
  }

  t0 = Clock::now();
  if (topology) cfg = expfw::with_sparse_topology(std::move(cfg), std::move(*topology));
  cfg.shards = spec.shards;
  cfg.shard_jobs = spec.shard_jobs;
  const std::size_t links = cfg.num_links();
  {
    SpanLog::Scope span{log, "net.construct"};
    live->network = std::make_unique<net::Network>(std::move(cfg), spec.factory);
  }
  if (spec.observed) {
    SpanLog::Scope span{log, "obs.attach"};
    live->registry = std::make_unique<obs::MetricsRegistry>();
    live->network->attach_metrics(live->registry.get());
    live->registry->stream_to(&live->stream, kStreamEvery);
  }
  r.setup_s += seconds_since(t0);

  IntervalTally* tally = live->tally.get();
  live->network->add_observer(
      [tally](IntervalIndex, std::span<const int> arrivals, std::span<const int> delivered) {
        tally->observe(arrivals, delivered);
      });

  net::Network& network = *live->network;
  run_intervals(network, 1, log);  // warm-up interval, simulated but untimed
  t0 = Clock::now();
  run_intervals(network, spec.intervals, log);
  r.run_s = seconds_since(t0);
  r.link_intervals = static_cast<double>(links) * static_cast<double>(spec.intervals);

  if (spec.observed) r.collected = collect_and_export(*live, log);

  {
    SpanLog::Scope span{log, "bench.check"};
    Outcome& o = r.outcome;
    o.label = spec.label;
    tally->fill(o);
    const auto& stats = network.stats();
    o.stats_intervals = stats.intervals();
    o.stats_arrivals.resize(links);
    o.stats_delivered.resize(links);
    for (std::size_t n = 0; n < links; ++n) {
      o.stats_arrivals[n] = stats.total_arrivals(static_cast<LinkId>(n));
      o.stats_delivered[n] = stats.total_delivered(static_cast<LinkId>(n));
    }
    o.medium = network.medium_counters();
    o.program_deficiency = network.total_deficiency();
    o.q.assign(links, spec.q);
    o.collision_free = spec.collision_free;
    o.evaluator_total = spec.evaluator_total;
    o.evaluator_match = spec.evaluator_match;
    o.requirements_met = spec.requirements_met;
    r.failures = check(o);
    r.events = network.events_executed();
    r.medium = o.medium;
    r.coordinator_rounds = network.coordinator_rounds();
    r.memory = network.memory_breakdown();
  }

  if (keep != nullptr) {
    *keep = std::move(live);
  } else {
    SpanLog::Scope span{log, "net.destroy"};
    live.reset();
  }
  return r;
}

// ---- rounds and metrics ------------------------------------------------------------

struct RoundTotals {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  double link_intervals = 0.0;
  double delivered = 0.0;
  double intervals = 0.0;  ///< simulated intervals summed over networks
  std::uint64_t events = 0;
  std::uint64_t tx = 0;
  std::uint64_t data_tx = 0;
  std::uint64_t medium_delivered = 0;
  std::uint64_t collisions = 0;
  std::uint64_t coordinator_rounds = 0;
  double simulated_link_intervals = 0.0;  ///< links x all simulated intervals
  double reference_s = 0.0;  ///< reference passes of a host-scaled workload
  std::size_t reference_passes = 0;
  net::Network::MemoryBreakdown memory;  ///< largest network of the round
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    m = (m + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid))) / 2.0;
  }
  return m;
}

/// Value at fraction `f` of the sorted samples (nearest rank).
double percentile(std::vector<double> v, double f) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(f * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string format_percent(double f) {
  std::ostringstream s;
  s << f * 100.0;
  return s.str();
}

/// The highest of p50/p90/p99/p99.9 that leaves at least ten samples beyond it.
double tail_fraction(std::size_t samples) {
  double best = 0.5;
  for (const double f : {0.9, 0.99, 0.999}) {
    if ((1.0 - f) * static_cast<double>(samples) >= 10.0) best = f;
  }
  return best;
}

class Runner {
 public:
  Runner(const Options& options, Workload workload)
      : options_{options},
        workload_{std::move(workload)},
        log_{options.trace},
        quiet_{false},
        created_{Clock::now()} {}

  Report run() {
    const Clock::time_point start = Clock::now();
    for (std::size_t round = 0;; ++round) {
      if (round > kMinMeasuredRounds && seconds_since(start) >= options_.seconds &&
          (!options_.trace || traced_intervals() >= workload_.min_traced_intervals)) {
        break;
      }
      if (options_.trace) {
        {
          SpanLog::Scope span{log_, "bench.untraced_round"};
          untraced_.push_back(run_round(quiet_, round, /*keep=*/false));
        }
        traced_.push_back(run_round(log_, round, /*keep=*/true));
      } else {
        untraced_.push_back(run_round(quiet_, round, /*keep=*/false));
      }
    }
    if (options_.trace) layer_metrics();
    else end_to_end_metrics();
    return std::move(report_);
  }

 private:
  std::size_t traced_intervals() const {
    std::size_t n = 0;
    for (const SpanLog::Span& s : log_.spans()) n += std::string_view{s.name} == "net.run";
    return n;
  }

  RoundTotals run_round(SpanLog& log, std::size_t round, bool keep) {
    RoundTotals t;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < workload_.ops.size(); ++i) {
      ++op_counter_;
      log.set_operation(static_cast<std::uint32_t>(op_counter_));
      const bool keep_this =
          keep && i + 1 == workload_.ops.size() && !workload_.ops[i].observed;
      if (keep_this) {
        SpanLog::Scope span{log, "net.destroy"};
        kept_.reset();
      }
      OpResult r = run_operation(workload_.ops[i], log, keep_this ? &kept_ : nullptr);
      ++report_.attempted;
      const std::uint64_t delivered = r.outcome.delivered_total();
      if (first_delivered_.size() <= i) first_delivered_.push_back(delivered);
      if (first_delivered_[i] != delivered) {
        r.failures.push_back(r.outcome.label + ": round " + std::to_string(round) +
                             " delivered " + std::to_string(delivered) + ", round 0 " +
                             std::to_string(first_delivered_[i]) + " (same inputs)");
      }
      if (!r.failures.empty()) {
        ++report_.failed;
        report_.failures.insert(report_.failures.end(), r.failures.begin(), r.failures.end());
      }
      t.setup_s += r.setup_s;
      t.run_s += r.run_s;
      t.link_intervals += r.link_intervals;
      t.delivered += static_cast<double>(delivered);
      t.intervals += static_cast<double>(r.outcome.intervals);
      t.simulated_link_intervals +=
          static_cast<double>(r.outcome.links) * static_cast<double>(r.outcome.intervals);
      t.events += r.events;
      t.tx += r.medium.data_tx + r.medium.empty_tx;
      t.data_tx += r.medium.data_tx;
      t.medium_delivered += r.medium.delivered;
      t.collisions += r.medium.collisions;
      t.coordinator_rounds += r.coordinator_rounds;
      if (workload_.ops[i].observed) last_collected_ = r.collected;
      if (workload_.host_scaled) {
        SpanLog::Scope span{log, "bench.reference"};
        const std::size_t passes =
            std::max<std::size_t>(1, kReferencePassesPerRound / workload_.ops.size());
        for (std::size_t p = 0; p < passes; ++p) t.reference_s += reference_pass_s();
        t.reference_passes += passes;
      }
      if (r.memory.arena_reserved + r.memory.sim_events + r.memory.phy + r.memory.mac >=
          t.memory.arena_reserved + t.memory.sim_events + t.memory.phy + t.memory.mac) {
        t.memory = r.memory;
      }
    }
    t.wall_s = seconds_since(t0);
    return t;
  }

  void add(const char* name, double value, const char* unit, std::size_t samples) {
    report_.metrics.push_back(Metric{name, value, unit, samples});
  }

  /// Median over the measured rounds (round 0 warms up and is left out).
  template <typename F>
  double over_rounds(const std::vector<RoundTotals>& rounds, F&& value) const {
    std::vector<double> v;
    for (std::size_t i = 1; i < rounds.size(); ++i) v.push_back(value(rounds[i]));
    return median(std::move(v));
  }

  /// How many times slower than the reference speed the host ran a round;
  /// 1 for workloads reported in plain host seconds.
  double slowdown(const RoundTotals& t) const {
    if (!workload_.host_scaled) return 1.0;
    return t.reference_s / static_cast<double>(t.reference_passes) / kReferencePassS;
  }

  void end_to_end_metrics() {
    const std::size_t n = untraced_.size() - 1;
    add("link_intervals_per_s", over_rounds(untraced_, [this](const RoundTotals& t) {
          return t.link_intervals / t.run_s * slowdown(t);
        }),
        "1/s", n);
    add("timely_throughput",
        over_rounds(untraced_, [](const RoundTotals& t) { return t.delivered / t.intervals; }),
        "pkt/interval", n);
    add("setup_s", over_rounds(untraced_, [](const RoundTotals& t) { return t.setup_s; }), "s",
        n);
    add("peak_rss_mb", static_cast<double>(rtmac::util::peak_rss_kb()) / 1024.0, "MB", 1);
  }

  void layer_metrics() {
    // Observed operations collect and export every time; the others do it
    // once, on the last traced network, because at city scale one collect
    // takes most of a minute.
    CollectResult collected = last_collected_;
    if (kept_) {
      collected = collect_and_export(*kept_, log_);
      SpanLog::Scope span{log_, "net.destroy"};
      kept_.reset();
    }

    // Stand-alone probes of layer entry points on the workload's inputs.
    ProbeResult arrivals, record, debt, plan;
    std::vector<double> partition_s;
    {
      SpanLog::Scope span{log_, "bench.probes"};
      const OpSpec& op = workload_.ops.front();
      net::NetworkConfig cfg = op.config();
      constexpr double kBudget = 0.25;
      {
        SpanLog::Scope s{log_, "net.arrivals_probe"};
        arrivals = probe_arrivals(cfg, kBudget);
      }
      {
        SpanLog::Scope s{log_, "stats.record_probe"};
        record = probe_stats_record(cfg, kBudget);
      }
      {
        SpanLog::Scope s{log_, "core.debt_probe"};
        debt = probe_debt_update(cfg, kBudget);
      }
      {
        SpanLog::Scope s{log_, "mac.dp_plan_probe"};
        plan = probe_dp_plan(workload_.dp_cell_links, workload_.dp_priority_space, cfg.seed,
                             kBudget);
      }
      // partition_topology on the workload's graph; the complete domain is
      // spelled out as adjacency lists.
      rtmac::sim::AdjacencyLists conflict;
      rtmac::sim::AdjacencyLists sense;
      if (op.topology) {
        phy::SparseTopology topo = op.topology();
        conflict = std::move(topo.conflict);
        sense = std::move(topo.sense);
      } else {
        const std::size_t n = cfg.num_links();
        conflict.resize(n);
        for (std::size_t a = 0; a < n; ++a) {
          for (std::size_t b = 0; b < n; ++b) {
            if (a != b) conflict[a].push_back(static_cast<LinkId>(b));
          }
        }
        sense = conflict;
      }
      for (int rep = 0; rep < 3; ++rep) {
        SpanLog::Scope s{log_, "sim.partition"};
        const Clock::time_point t0 = Clock::now();
        [[maybe_unused]] const rtmac::sim::ShardPlan plan_out =
            rtmac::sim::partition_topology(conflict, sense, std::max<std::size_t>(op.shards, 1));
        partition_s.push_back(seconds_since(t0));  // the plan's teardown is not timed
      }
    }

    const auto spans = [&](const char* name) { return log_.durations(name); };
    const auto med = [&](const char* name) { return median(spans(name)); };
    const auto count = [&](const char* name) { return spans(name).size(); };

    add("expfw.topology_s", med("expfw.topology"), "s", count("expfw.topology"));
    add("sim.partition_s", median(partition_s), "s", partition_s.size());
    add("net.construct_s", med("net.construct"), "s", count("net.construct"));
    add("obs.attach_s", med("obs.attach"), "s", count("obs.attach"));

    std::vector<double> interval_us = spans("net.run");
    for (double& v : interval_us) v *= 1e6;
    add("net.interval_us.p50", percentile(interval_us, 0.5), "us", interval_us.size());
    const double tail = tail_fraction(interval_us.size());
    add("net.interval_us.tail", percentile(interval_us, tail), "us", interval_us.size());
    report_.notes.push_back("net.interval_us.tail is p" + format_percent(tail) + " of " +
                            std::to_string(interval_us.size()) + " intervals");

    add("net.arrivals_ns_per_link", arrivals.value, "ns", arrivals.samples);
    add("stats.record_ns_per_link", record.value, "ns", record.samples);
    add("core.debt_update_ns_per_link", debt.value, "ns", debt.samples);
    add("mac.dp_plan_us", plan.value, "us", plan.samples);
    add("mac.dp_priority_space", static_cast<double>(workload_.dp_priority_space), "count", 1);

    // Counts from the program's facades, summed over the traced rounds.
    RoundTotals sum;
    for (const RoundTotals& t : traced_) {
      sum.events += t.events;
      sum.tx += t.tx;
      sum.data_tx += t.data_tx;
      sum.medium_delivered += t.medium_delivered;
      sum.collisions += t.collisions;
      sum.coordinator_rounds += t.coordinator_rounds;
      sum.intervals += t.intervals;
      sum.simulated_link_intervals += t.simulated_link_intervals;
    }
    const std::size_t rounds = traced_.size();
    const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    add("sim.events_per_link_interval",
        per(static_cast<double>(sum.events), sum.simulated_link_intervals), "count", rounds);
    add("phy.tx_per_link_interval", per(static_cast<double>(sum.tx), sum.simulated_link_intervals),
        "count", rounds);
    add("phy.delivered_per_data_tx",
        per(static_cast<double>(sum.medium_delivered), static_cast<double>(sum.data_tx)),
        "ratio", rounds);
    add("phy.collisions_per_interval", per(static_cast<double>(sum.collisions), sum.intervals),
        "count", rounds);
    add("sim.coordinator_rounds_per_interval",
        per(static_cast<double>(sum.coordinator_rounds), sum.intervals), "count", rounds);

    add("obs.collect_s", med("obs.collect"), "s", count("obs.collect"));
    add("obs.export_s", med("obs.export"), "s", count("obs.export"));
    add("obs.export_bytes", static_cast<double>(collected.export_bytes), "bytes", 1);
    add("obs.instruments", static_cast<double>(collected.instruments), "count", 1);

    const net::Network::MemoryBreakdown mem = traced_.back().memory;
    const auto mb = [](std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); };
    add("net.mem_arena_mb", mb(mem.arena_reserved), "MB", 1);
    add("net.mem_sim_events_mb", mb(mem.sim_events), "MB", 1);
    add("net.mem_phy_mb", mb(mem.phy), "MB", 1);
    add("net.mem_mac_mb", mb(mem.mac), "MB", 1);
    add("net.mem_arrivals_mb", mb(mem.arrivals), "MB", 1);

    add("host.reference_pass_us", over_rounds(untraced_, [](const RoundTotals& t) {
          return t.reference_passes == 0
                     ? 0.0
                     : 1e6 * t.reference_s / static_cast<double>(t.reference_passes);
        }),
        "us", untraced_.size() - 1);

    const auto wall = [](const RoundTotals& t) { return t.wall_s; };
    add("trace.overhead_s", over_rounds(traced_, wall) - over_rounds(untraced_, wall), "s",
        traced_.size() - 1);

    // Share of this run's wall time that top-level spans account for.
    add("trace.span_coverage", 100.0 * log_.top_level_seconds() / seconds_since(created_), "%",
        log_.spans().size());
    span_report();
  }

  /// Per span name: count, total and self time; then the spans themselves.
  void span_report() {
    std::ostringstream table;
    table << "span                          count     total_s      self_s\n";
    for (const auto& [name, t] : log_.totals()) {
      table << std::left << std::setw(28) << name << std::right << std::setw(7) << t.count
            << std::setw(12) << std::fixed << std::setprecision(4) << t.total_s << std::setw(12)
            << t.self_s << "\n";
    }
    report_.notes.push_back(table.str());
    if (options_.out_dir.empty()) return;
    const std::string path = options_.out_dir + "/spans_" + options_.workload + "_seed" +
                             std::to_string(options_.seed) + ".jsonl";
    std::ofstream out{path};
    log_.write_jsonl(out);
    if (out) report_.notes.push_back("spans written to " + path);
  }

  const Options& options_;
  Workload workload_;
  SpanLog log_;
  SpanLog quiet_;
  Clock::time_point created_;
  Report report_;
  std::vector<RoundTotals> untraced_;  ///< untraced rounds
  std::vector<RoundTotals> traced_;
  std::vector<std::uint64_t> first_delivered_;  ///< per operation, round 0
  std::unique_ptr<LiveRun> kept_;
  CollectResult last_collected_;
  std::size_t op_counter_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_domain", "city_dcf", "city_dbdp",
                                              "cut_chain_observed"};
  return names;
}

Report run_workload(const Options& options) {
  Runner runner{options, make_workload(options.workload, options.seed)};
  return runner.run();
}

}  // namespace perfbench
