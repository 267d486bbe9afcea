// Cell-plan equivalence tests (DESIGN §4i): on partitionable topologies a
// multi-cell Network must reproduce the one-cell run exactly — same
// per-interval deliveries, same debts, same channel accounting, same
// collision ledger — for any shard count, because every RNG stream is keyed
// by global link id and cut resolution is exact. A one-cell network also
// keeps what only it can serve: custom channels, LDF and tracing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "expfw/scenarios.hpp"
#include "mac/dcf_mac.hpp"
#include "mac/dp_link_mac.hpp"
#include "mac/fcsma_mac.hpp"
#include "phy/channel_model.hpp"
#include "net/network.hpp"
#include "net/network_config.hpp"
#include "obs/collect.hpp"
#include "obs/metrics.hpp"
#include "phy/interference.hpp"
#include "sim/trace.hpp"
#include "traffic/arrival_process.hpp"
#include "util/check.hpp"

namespace rtmac::net {
namespace {

constexpr IntervalIndex kIntervals = 60;

/// Everything observable about a finished run, keyed by GLOBAL link id.
struct RunRecord {
  std::vector<int> delivered_series;  ///< flattened [interval][link]
  std::vector<double> debts;
  std::vector<std::uint64_t> link_arrivals;   ///< stats totals
  std::vector<std::uint64_t> link_delivered;  ///< stats totals
  std::vector<std::uint64_t> link_data_tx;
  std::vector<std::uint64_t> link_collisions;
  std::vector<std::uint64_t> pair_counts;  ///< flattened [a][b]
  std::uint64_t collisions = 0;
  std::uint64_t delivered = 0;
  std::uint64_t channel_losses = 0;
  std::string metrics_jsonl;

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

/// Field-by-field comparison with a readable first-difference report.
void expect_same_run(const RunRecord& a, const RunRecord& b, const std::string& label) {
  EXPECT_EQ(a.delivered_series, b.delivered_series) << label << ": per-interval deliveries";
  EXPECT_EQ(a.debts, b.debts) << label << ": final debts";
  EXPECT_EQ(a.link_arrivals, b.link_arrivals) << label << ": stats arrivals";
  EXPECT_EQ(a.link_delivered, b.link_delivered) << label << ": stats deliveries";
  EXPECT_EQ(a.link_data_tx, b.link_data_tx) << label << ": per-link data_tx";
  EXPECT_EQ(a.link_collisions, b.link_collisions) << label << ": per-link collisions";
  EXPECT_EQ(a.pair_counts, b.pair_counts) << label << ": collision pair ledger";
  EXPECT_EQ(a.collisions, b.collisions) << label;
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.channel_losses, b.channel_losses) << label;
  if (a.metrics_jsonl != b.metrics_jsonl) {
    std::istringstream la{a.metrics_jsonl};
    std::istringstream lb{b.metrics_jsonl};
    std::string x;
    std::string y;
    std::size_t line = 1;
    while (true) {
      const bool ga = static_cast<bool>(std::getline(la, x));
      const bool gb = static_cast<bool>(std::getline(lb, y));
      if (!ga && !gb) break;
      ASSERT_EQ(ga ? x : "<eof>", gb ? y : "<eof>")
          << label << ": metrics line " << line;
      ++line;
    }
  }
}

RunRecord run_network(NetworkConfig config, const mac::SchemeFactory& factory,
                      IntervalIndex intervals = kIntervals) {
  Network network{std::move(config), factory};
  RunRecord rec;
  network.add_observer([&rec](IntervalIndex, std::span<const int>, std::span<const int> d) {
    rec.delivered_series.insert(rec.delivered_series.end(), d.begin(), d.end());
  });
  obs::MetricsRegistry registry;
  network.attach_metrics(&registry);
  network.run(intervals);

  const std::size_t n = network.config().num_links();
  rec.pair_counts.assign(n * n, 0);
  std::vector<phy::PairCount> row;
  for (LinkId l = 0; l < n; ++l) {
    rec.debts.push_back(network.debts().debt(l));
    rec.link_arrivals.push_back(network.stats().total_arrivals(l));
    rec.link_delivered.push_back(network.stats().total_delivered(l));
    rec.link_data_tx.push_back(network.link_counters(l).data_tx);
    rec.link_collisions.push_back(network.link_counters(l).collisions);
    network.collision_row(l, row);
    for (const phy::PairCount& pc : row) rec.pair_counts[l * n + pc.other] = pc.count;
  }
  const phy::MediumCounters counters = network.medium_counters();
  rec.collisions = counters.collisions;
  rec.delivered = counters.delivered;
  rec.channel_losses = counters.channel_losses;

  // End-of-run metric export via the facades (exercises per-cell registry
  // merging on multi-cell plans); JSONL is name-ordered and deterministic.
  // Engine-shape metrics (cell/group counts, event totals) legitimately
  // depend on the partition, so they are stripped before comparing.
  obs::collect_network_metrics(registry, network);
  std::ostringstream jsonl;
  registry.write_jsonl(jsonl);
  std::istringstream lines{jsonl.str()};
  for (std::string line; std::getline(lines, line);) {
    // The busy-window metrics are the one semantic difference: one cell
    // reports the union busy time/periods of the single global channel;
    // several cell media report each collision domain's own windows, and
    // simultaneous windows of independent domains cannot be re-unioned
    // from aggregate durations.
    static constexpr const char* kEngineShape[] = {
        "net.cells",           "net.groups",
        "sim.coordinator_rounds", "sim.events_executed",
        "engine.events.reallocs", "phy.busy_fraction",
        "phy.busy_period_us",
        // Arena layout (and hence byte accounting) legitimately differs
        // between one cell and several, and the DP batch path is an
        // engine-shape property: clique cells keep complete sensing and
        // take it even when one cell's global view cannot. The freeze
        // diagnostics follow the path (scalar records exact per-link freeze
        // spans; the batch kernel broadcasts the domain-wide span).
        "mem.", "mac.dp.batch_path",
        "mac.freeze_ns", "mac.backoff_freeze_us"};
    const auto is_shape = [&line](const char* name) {
      return line.find(name) != std::string::npos;
    };
    if (std::any_of(std::begin(kEngineShape), std::end(kEngineShape), is_shape)) continue;
    rec.metrics_jsonl += line;
    rec.metrics_jsonl += '\n';
  }
  return rec;
}

struct SchemeCase {
  const char* name;
  mac::SchemeFactory factory;
};

std::vector<SchemeCase> all_schemes() {
  return {{"DCF", expfw::dcf_factory()},
          {"FCSMA", expfw::fcsma_factory()},
          {"DB-DP", expfw::dbdp_factory()}};
}

NetworkConfig cells_config(std::uint64_t seed, std::size_t shards,
                           std::size_t num_links = 12, std::size_t cell_size = 4) {
  auto cfg = net::symmetric_network(num_links, Duration::milliseconds(2),
                                    phy::PhyParams::control_80211a(), 0.7,
                                    traffic::BernoulliArrivals{0.8}, 0.9, seed);
  cfg.topology = expfw::disconnected_cells_topology(num_links, cell_size);
  cfg.shards = shards;
  return cfg;
}

// ---- engine selection -------------------------------------------------------

TEST(ShardedNetworkTest, CompleteTopologyRunsAsOneCell) {
  auto cfg = expfw::control_symmetric(0.8, 0.99, 7);
  cfg.topology = phy::InterferenceGraph::complete(cfg.num_links());
  cfg.shards = 4;  // complete graph -> one clique cell -> trivial plan
  const std::size_t n = cfg.num_links();
  Network network{std::move(cfg), expfw::dcf_factory()};
  ASSERT_EQ(network.cell_count(), 1U);
  EXPECT_EQ(network.group_count(), 1U);
  ASSERT_EQ(network.cell_links(0).size(), n);
  for (LinkId l = 0; l < n; ++l) EXPECT_EQ(network.cell_links(0)[l], l);
  // One cell stays out of shard mode: complete sensing, bursts available.
  EXPECT_TRUE(network.cell_medium(0).sense_closed());
  EXPECT_TRUE(network.cell_medium(0).burst_available());
  network.run(5);
  EXPECT_EQ(network.coordinator_rounds(), 0U);
  EXPECT_EQ(network.now(), TimePoint::origin() + 5 * network.config().interval_length);
}

TEST(ShardedNetworkTest, DisconnectedCellsShardIntoOneEnginePerCell) {
  Network network{cells_config(11, /*shards=*/3), expfw::dcf_factory()};
  EXPECT_EQ(network.cell_count(), 3U);
  EXPECT_EQ(network.group_count(), 3U);
  EXPECT_EQ(network.coordinator_rounds(), 0U);  // no cuts -> no coordinator
  EXPECT_EQ(network.cell_links(1).size(), 4U);
  EXPECT_EQ(network.cell_links(1)[0], 4U);
  network.run(5);
  EXPECT_EQ(network.now(), TimePoint::origin() + 5 * network.config().interval_length);
}

// ---- byte-identical results across engines and shard counts -----------------

TEST(ShardedNetworkTest, ShardedRunMatchesOneCellOnDisconnectedCells) {
  for (const SchemeCase& c : all_schemes()) {
    const auto one_cell = run_network(cells_config(21, /*shards=*/0), c.factory);
    const auto sharded = run_network(cells_config(21, /*shards=*/3), c.factory);
    expect_same_run(one_cell, sharded, c.name);
    EXPECT_GT(one_cell.delivered, 0U) << c.name;
  }
}

TEST(ShardedNetworkTest, ResultsAreIndependentOfShardCountAndWorkerCount) {
  // A cut-free city of 32 cells: one group per cell at shards = cells, so
  // the lanes fold many groups each; every (shards, jobs) must reproduce
  // the one-group run.
  constexpr std::size_t kLinks = 128;
  constexpr std::size_t kCellSize = 4;
  for (const SchemeCase& c : all_schemes()) {
    const auto base = run_network(cells_config(33, /*shards=*/1, kLinks, kCellSize), c.factory);
    EXPECT_GT(base.delivered, 0U) << c.name;
    for (const std::size_t shards : {2UL, 3UL, 6UL, kLinks / kCellSize}) {
      for (const std::size_t jobs : {1UL, 2UL, 3UL, 4UL}) {
        auto cfg = cells_config(33, shards, kLinks, kCellSize);
        cfg.shard_jobs = jobs;
        const std::string label = std::string{c.name} + " shards=" + std::to_string(shards) +
                                  " jobs=" + std::to_string(jobs);
        expect_same_run(base, run_network(std::move(cfg), c.factory), label);
      }
    }
  }
}

TEST(ShardedNetworkTest, LanesFoldGroupsWithoutChangingThePlan) {
  constexpr std::size_t kCells = 32;
  for (const std::size_t jobs : {1UL, 2UL, 3UL, 64UL}) {
    auto cfg = cells_config(5, /*shards=*/kCells, /*num_links=*/kCells * 4);
    cfg.shard_jobs = jobs;
    Network network{std::move(cfg), expfw::dcf_factory()};
    EXPECT_EQ(network.cell_count(), kCells);
    EXPECT_EQ(network.group_count(), kCells) << "jobs=" << jobs;
    EXPECT_EQ(network.lane_stats().size(), std::min(jobs, kCells)) << "jobs=" << jobs;
    network.run(4);
    // Cut-free: one lane round per interval, whatever the lane count.
    EXPECT_EQ(network.lane_rounds(), 4U) << "jobs=" << jobs;
  }
}

TEST(ShardedNetworkTest, SparseTopologyMatchesItsDenseEquivalent) {
  // The same disconnected-cells relation expressed as adjacency lists must
  // produce identical results through the sparse construction path.
  const auto dense = run_network(cells_config(55, /*shards=*/3), expfw::fcsma_factory());

  constexpr std::size_t kNumLinks = 12;
  constexpr std::size_t kCellSize = 4;
  phy::SparseTopology sparse;
  sparse.num_links = kNumLinks;
  sparse.conflict.resize(kNumLinks);
  sparse.sense.resize(kNumLinks);
  for (LinkId a = 0; a < kNumLinks; ++a) {
    for (LinkId b = 0; b < kNumLinks; ++b) {
      if (a == b || a / kCellSize != b / kCellSize) continue;
      sparse.conflict[a].push_back(b);
      sparse.sense[a].push_back(b);
    }
  }
  auto cfg = cells_config(55, /*shards=*/3);
  cfg.topology.reset();
  cfg = expfw::with_sparse_topology(std::move(cfg), std::move(sparse));
  EXPECT_EQ(dense, run_network(std::move(cfg), expfw::fcsma_factory()));
}

// ---- cross-shard hidden terminal (conflict cut without sensing) -------------

/// Four links on a line, built with the geometric unit-disk rule: {0,1} and
/// {2,3} are carrier-sense cliques; (1,2) conflict at the receivers but
/// cannot hear each other — a hidden-terminal pair that a 2-shard partition
/// must place on the conflict cut with NO sense cut.
phy::InterferenceGraph hidden_cut_unit_disk() {
  using P = phy::InterferenceGraph::LinkPlacement;
  const std::vector<P> links = {
      P{{0.0, 0.0}, {0.5, 0.0}},  // link 0
      P{{2.0, 0.0}, {1.5, 0.0}},  // link 1
      P{{5.0, 0.0}, {5.5, 0.0}},  // link 2
      P{{7.0, 0.0}, {6.5, 0.0}},  // link 3
  };
  return phy::InterferenceGraph::unit_disk(links, /*interference_range=*/3.6,
                                           /*sense_range=*/2.2);
}

NetworkConfig hidden_cut_config(std::uint64_t seed, std::size_t shards) {
  auto cfg = net::symmetric_network(4, Duration::milliseconds(2),
                                    phy::PhyParams::control_80211a(), 0.7,
                                    traffic::BernoulliArrivals{0.9}, 0.9, seed);
  cfg.topology = hidden_cut_unit_disk();
  cfg.shards = shards;
  return cfg;
}

TEST(ShardedNetworkTest, HiddenCutPairIsAConflictCutWithoutSensing) {
  const auto g = hidden_cut_unit_disk();
  EXPECT_TRUE(g.conflicts(1, 2));
  EXPECT_FALSE(g.senses(1, 2));
  EXPECT_FALSE(g.senses(2, 1));
  EXPECT_TRUE(g.senses(0, 1));
  EXPECT_TRUE(g.senses(2, 3));
  EXPECT_FALSE(g.conflicts(0, 2));
  EXPECT_FALSE(g.conflicts(0, 3));
  EXPECT_FALSE(g.conflicts(1, 3));

  Network network{hidden_cut_config(42, /*shards=*/2), expfw::dcf_factory()};
  ASSERT_EQ(network.cell_count(), 2U);
  EXPECT_EQ(network.cell_links(0).size(), 2U);
  network.run(3);
  EXPECT_GT(network.coordinator_rounds(), 0U);  // the cut engages the coordinator
}

TEST(ShardedNetworkTest, CrossShardHiddenTerminalLedgerMatchesTheOneCellRun) {
  // shards=1 keeps the union-connected 4-link graph in one cell; shards=2
  // puts the hidden pair on the cut. The collision ledgers (and everything
  // else) must agree exactly, and the hidden pair must actually collide or
  // the test proves nothing.
  const auto one_cell = run_network(hidden_cut_config(42, /*shards=*/1), expfw::dcf_factory());
  const auto sharded = run_network(hidden_cut_config(42, /*shards=*/2), expfw::dcf_factory());
  expect_same_run(one_cell, sharded, "hidden-cut");
  const std::size_t n = 4;
  EXPECT_GT(one_cell.pair_counts[1 * n + 2], 0U) << "hidden pair never collided";
  EXPECT_EQ(one_cell.pair_counts[1 * n + 2], sharded.pair_counts[2 * n + 1]);
}

// ---- conflict-cut cells: sense-closed batch paths ---------------------------

/// True when the scheme serving one cell runs its shared-clock batch path.
bool cell_batch_path(const Network& network, std::size_t cell) {
  const mac::MacScheme& scheme = network.cell_scheme(cell);
  if (const auto* dcf = dynamic_cast<const mac::DcfScheme*>(&scheme)) return dcf->batch_path();
  if (const auto* fcsma = dynamic_cast<const mac::FcsmaScheme*>(&scheme)) {
    return fcsma->batch_path();
  }
  if (const auto* dp = dynamic_cast<const mac::DpScheme*>(&scheme)) return dp->batch_path();
  ADD_FAILURE() << "unexpected scheme " << scheme.name();
  return false;
}

constexpr std::size_t kChainCells = 4;
constexpr std::size_t kLongChainCells = 16;
constexpr std::size_t kChainCellSize = 8;

/// A chain of `cells` carrier-sense cliques of 8 links, neighbors coupled by
/// one conflict-only (hidden-terminal) pair. `shards == 0` runs the dense
/// form as one cell; otherwise the sparse form is partitioned.
NetworkConfig chain_config(std::uint64_t seed, std::size_t shards, std::size_t jobs = 1,
                           std::size_t cells = kChainCells) {
  auto cfg = net::symmetric_network(cells * kChainCellSize, Duration::milliseconds(2),
                                    phy::PhyParams::control_80211a(), 0.7,
                                    traffic::BernoulliArrivals{0.9}, 0.9, seed);
  phy::SparseTopology topo = expfw::chain_cells_topology(cells, kChainCellSize);
  if (shards == 0) {
    cfg.topology = phy::InterferenceGraph::from_lists(topo.num_links, topo.conflict, topo.sense);
  } else {
    cfg = expfw::with_sparse_topology(std::move(cfg), std::move(topo));
  }
  cfg.shards = shards;
  cfg.shard_jobs = jobs;
  return cfg;
}

/// Two 2-link cliques {0,1} and {2,3} coupled by a conflict edge (1,2)
/// that link 2 also hears: a sense cut with listener 2 and speaker 1.
NetworkConfig sensed_cut_config(std::uint64_t seed, std::size_t shards, std::size_t jobs = 1) {
  auto cfg = net::symmetric_network(4, Duration::milliseconds(2),
                                    phy::PhyParams::control_80211a(), 0.7,
                                    traffic::BernoulliArrivals{0.9}, 0.9, seed);
  const std::vector<std::vector<LinkId>> conflict = {{1}, {0, 2}, {1, 3}, {2}};
  const std::vector<std::vector<LinkId>> sense = {{1}, {0}, {1, 3}, {2}};
  cfg.topology = phy::InterferenceGraph::from_lists(4, conflict, sense);
  cfg.shards = shards;
  cfg.shard_jobs = jobs;
  return cfg;
}

TEST(ShardedNetworkTest, ConflictCutRunsMatchOneCellAcrossShardsAndJobs) {
  // Every scheme, on a hidden-terminal cut of two cliques (several seeds)
  // and on a chain of four: one cell vs shards 2/4 x shard_jobs 1/2. The
  // clique cells run the batch paths the one cell's partial global view
  // cannot, so this is the batch-vs-scalar equivalence under cut
  // conflicts — and, through the coordinator's next-event lookahead, the
  // proof that the adaptive window bound is exact.
  for (const SchemeCase& c : all_schemes()) {
    for (const std::uint64_t seed : {42ULL, 7ULL, 1001ULL}) {
      const auto one_cell = run_network(hidden_cut_config(seed, /*shards=*/0), c.factory);
      EXPECT_GT(one_cell.pair_counts[1 * 4 + 2], 0U) << c.name << ": hidden pair never collided";
      for (const std::size_t shards : {2UL, 4UL}) {
        for (const std::size_t jobs : {1UL, 2UL}) {
          auto cfg = hidden_cut_config(seed, shards);
          cfg.shard_jobs = jobs;
          expect_same_run(one_cell, run_network(std::move(cfg), c.factory),
                          std::string{c.name} + " hidden-cut seed " + std::to_string(seed) +
                              " shards " + std::to_string(shards) + " jobs " +
                              std::to_string(jobs));
        }
      }
    }
    const auto one_cell = run_network(chain_config(5, /*shards=*/0), c.factory);
    // DB-DP's chain rarely overlaps a hidden pair (the pair's two links sit
    // at opposite ends of their cells' priority orders); the contention
    // schemes must collide across the cut or the comparison proves little.
    if (std::string{c.name} != "DB-DP") {
      constexpr std::size_t kLinks = kChainCells * kChainCellSize;
      EXPECT_GT(one_cell.pair_counts[(kChainCellSize - 1) * kLinks + kChainCellSize], 0U)
          << c.name;
    }
    for (const std::size_t shards : {2UL, 4UL}) {
      for (const std::size_t jobs : {1UL, 2UL, 3UL}) {
        expect_same_run(one_cell, run_network(chain_config(5, shards, jobs), c.factory),
                        std::string{c.name} + " chain shards " + std::to_string(shards) +
                            " jobs " + std::to_string(jobs));
      }
    }
    // A long chain at shards = cells: every coordinator round folds many
    // groups onto each lane. (Against one job, not the one-cell run: past
    // its exact threshold one cell's latency sketch compacts, while the
    // merged per-cell sketches stay exact.)
    const auto one_job =
        run_network(chain_config(6, kLongChainCells, /*jobs=*/1, kLongChainCells), c.factory);
    EXPECT_GT(one_job.delivered, 0U) << c.name;
    for (const std::size_t jobs : {2UL, 3UL}) {
      expect_same_run(one_job,
                      run_network(chain_config(6, kLongChainCells, jobs, kLongChainCells),
                                  c.factory),
                      std::string{c.name} + " long chain jobs " + std::to_string(jobs));
    }
  }
}

TEST(ShardedNetworkTest, ConflictCutCliqueCellsTakeTheBatchPathAndRefuseBursts) {
  for (const SchemeCase& c : all_schemes()) {
    Network network{chain_config(3, /*shards=*/kChainCells), c.factory};
    ASSERT_EQ(network.cell_count(), kChainCells);
    for (std::size_t ci = 0; ci < network.cell_count(); ++ci) {
      const phy::Medium& medium = network.cell_medium(ci);
      EXPECT_TRUE(medium.sense_closed()) << c.name << " cell " << ci;
      EXPECT_FALSE(medium.interference_closed()) << c.name << " cell " << ci;
      EXPECT_FALSE(medium.burst_available()) << c.name << " cell " << ci;
      EXPECT_TRUE(cell_batch_path(network, ci)) << c.name << " cell " << ci;
    }
    network.run(5);
    EXPECT_GT(network.coordinator_rounds(), 0U) << c.name;
  }
  // Cut-free clique cells are interference-closed: bursts stay available.
  Network cut_free{cells_config(3, /*shards=*/3), expfw::dbdp_factory()};
  ASSERT_EQ(cut_free.cell_count(), 3U);
  for (std::size_t ci = 0; ci < cut_free.cell_count(); ++ci) {
    EXPECT_TRUE(cut_free.cell_medium(ci).interference_closed()) << "cell " << ci;
    EXPECT_TRUE(cut_free.cell_medium(ci).burst_available()) << "cell " << ci;
  }
}

TEST(ShardedNetworkTest, CellWithARemoteListenerNeverKeepsCompleteSensing) {
  for (const SchemeCase& c : all_schemes()) {
    Network network{sensed_cut_config(9, /*shards=*/2), c.factory};
    ASSERT_EQ(network.cell_count(), 2U);
    ASSERT_EQ(network.cell_links(0)[0], 0U);
    ASSERT_EQ(network.cell_links(1)[0], 2U);
    // Cell 1 holds listener 2: per-node views and the scalar engines.
    EXPECT_FALSE(network.cell_medium(1).sense_closed()) << c.name;
    EXPECT_FALSE(network.cell_medium(1).interference_closed()) << c.name;
    EXPECT_FALSE(cell_batch_path(network, 1)) << c.name;
    // Cell 0 only speaks across the cut: sense-closed, not interference-closed.
    EXPECT_TRUE(network.cell_medium(0).sense_closed()) << c.name;
    EXPECT_FALSE(network.cell_medium(0).interference_closed()) << c.name;
    EXPECT_TRUE(cell_batch_path(network, 0)) << c.name;

    // Worker-count independence. (Equality with the one-cell run is not
    // asserted on sense cuts: a listener cell's run limit bounds only its
    // cut-conflict completions, so its backoff can run past remote activity
    // it has not been handed yet — DESIGN §4i.)
    expect_same_run(run_network(sensed_cut_config(9, /*shards=*/2, /*jobs=*/1), c.factory),
                    run_network(sensed_cut_config(9, /*shards=*/2, /*jobs=*/2), c.factory),
                    std::string{c.name} + " sensed cut jobs 1 vs 2");
  }
}

TEST(ShardedNetworkTest, DbdpMemoryIsAccountedAndGrowsWithTheCellCount) {
  const Network one_cell{cells_config(9, /*shards=*/0), expfw::dbdp_factory()};
  EXPECT_GT(one_cell.memory_breakdown().mac, 0U);
  const Network three{cells_config(9, /*shards=*/3, /*num_links=*/12), expfw::dbdp_factory()};
  const Network six{cells_config(9, /*shards=*/6, /*num_links=*/24), expfw::dbdp_factory()};
  ASSERT_EQ(three.cell_count(), 3U);
  ASSERT_EQ(six.cell_count(), 6U);
  EXPECT_GT(three.memory_breakdown().mac, 0U);
  EXPECT_GT(six.memory_breakdown().mac, three.memory_breakdown().mac);
}

// ---- guard rails ------------------------------------------------------------

TEST(ShardedNetworkTest, OneCellNetworkRunsLdfACustomChannelAndATracer) {
  // What only a one-cell network can serve: a non-shardable scheme, a
  // custom loss model and protocol tracing, all at once.
  const phy::GilbertElliottParams gep{.p_good = 0.9, .p_bad = 0.2, .good_to_bad = 0.05,
                                      .bad_to_good = 0.15};
  auto cfg = net::symmetric_network(6, Duration::milliseconds(20),
                                    phy::PhyParams::video_80211a(), gep.mean_success(),
                                    traffic::UniformBurstyArrivals{0.3}, 0.9, 8);
  cfg.channel_factory = [gep] {
    return std::make_unique<phy::GilbertElliottChannel>(
        std::vector<phy::GilbertElliottParams>(6, gep));
  };
  Network network{std::move(cfg), expfw::ldf_factory()};
  ASSERT_EQ(network.cell_count(), 1U);
  EXPECT_EQ(network.cell_scheme(0).name(), "LDF");
  EXPECT_FALSE(network.cell_scheme(0).shardable());
  EXPECT_GT(network.cell_medium(0).success_prob(0), gep.p_bad);
  sim::Tracer tracer;
  network.attach_tracer(&tracer);
  network.run(20);
  network.attach_tracer(nullptr);
  const auto is_kind = [](sim::TraceKind kind) {
    return [kind](const sim::TraceEvent& e) { return e.kind == kind; };
  };
  const auto& events = tracer.events();
  EXPECT_EQ(std::count_if(events.begin(), events.end(), is_kind(sim::TraceKind::kIntervalStart)),
            20);
  EXPECT_EQ(std::count_if(events.begin(), events.end(), is_kind(sim::TraceKind::kIntervalEnd)),
            20);
  EXPECT_GT(events.size(), 40U) << "no medium/MAC events reached the tracer";
  EXPECT_GT(network.medium_counters().delivered, 0U);
  EXPECT_GT(network.medium_counters().channel_losses, 0U);
}

TEST(ShardedNetworkTest, MultiCellPlanRefusesATracerAndANonShardableScheme) {
  if (!kChecksEnabled) GTEST_SKIP() << "contract checks compiled out";
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Network network{cells_config(5, /*shards=*/2), expfw::dcf_factory()};
  ASSERT_GT(network.cell_count(), 1U);
  sim::Tracer tracer;
  EXPECT_DEATH(network.attach_tracer(&tracer), "one-cell network");
  network.attach_tracer(nullptr);  // detaching stays legal
  EXPECT_DEATH((Network{cells_config(5, /*shards=*/2), expfw::ldf_factory()}),
               "multi-cell plan");
  // A custom channel never reaches a plan: validation refuses it with shards.
  auto cfg = cells_config(5, /*shards=*/2);
  cfg.channel_factory = [] { return std::unique_ptr<phy::ChannelModel>{}; };
  std::string error;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("default Bernoulli channel"), std::string::npos) << error;
}

TEST(ShardedNetworkTest, ValidationRejectsSparseWithoutShardsAndCustomChannels) {
  auto cfg = cells_config(5, /*shards=*/0);
  cfg.topology.reset();
  phy::SparseTopology sparse;
  sparse.num_links = 12;
  sparse.conflict.resize(12);
  sparse.sense.resize(12);
  cfg.sparse_topology = std::make_shared<const phy::SparseTopology>(std::move(sparse));
  std::string error;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("sharded engine"), std::string::npos);
  cfg.shards = 2;
  EXPECT_TRUE(cfg.validate(&error)) << error;
}

}  // namespace
}  // namespace rtmac::net
