// The experiment orchestrator: wires the engine cells (Simulator + Medium +
// MacScheme each) + traffic + debt/statistics, and drives the interval
// structure.
//
// Per interval k (paper Section II-B): at t = kT arrivals are sampled and
// handed to the scheme; the scheme contends on the medium until (k+1)T;
// at the boundary the network collects on-time deliveries S(k), advances
// the debt ledger (eq. 1), and records statistics. Undelivered packets are
// dropped by the scheme (hard per-packet deadline = interval end).
//
// Execution (DESIGN §4i): every network runs as a plan of cells. The
// conflict graph is cut into cells (sim/shard_partitioner); each cell owns
// a full engine stack (Simulator + Medium + scheme + debt slice) over its
// induced subgraph, and cells advance under the conservative window
// protocol of sim/sharded_simulator. `shards == 0`, a network without a
// topology, and every topology the partitioner keeps whole (the paper's
// complete collision domain among them) run as ONE cell over all links,
// whose results the golden figure CSVs (tests/golden/) pin. Arrivals are
// sampled centrally in global link order and all RNG streams are keyed by
// global link ids, so results do not depend on the partition or on the
// worker count.
//
// The cell count changes behaviour in exactly three places: a one-cell plan
// leaves its Medium out of shard mode (a complete graph keeps the Medium's
// shared loss stream), writes medium/MAC instruments straight into the
// attached registry, and accepts a custom channel model, a non-shardable
// scheme (LDF) and a tracer — a plan with more cells refuses all three.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/debt.hpp"
#include "mac/link_mac.hpp"
#include "net/arrival_kernel.hpp"
#include "net/network_config.hpp"
#include "phy/medium.hpp"
#include "sim/shard_partitioner.hpp"
#include "sim/trace.hpp"
#include "stats/link_stats.hpp"
#include "util/arena.hpp"
#include "util/lane_runner.hpp"
#include "util/rng.hpp"

namespace rtmac::net {

/// Observer invoked after every interval with (k, arrivals, deliveries);
/// used by convergence/starvation experiments to record time series. The
/// spans view the Network's interval buffers — valid only during the call.
using IntervalObserver =
    std::function<void(IntervalIndex, std::span<const int>, std::span<const int>)>;

/// Owns the full simulation stack for one run of one scheme.
class Network {
 public:
  /// Takes ownership of `config` (validated; aborts on inconsistent input).
  Network(NetworkConfig config, const mac::SchemeFactory& scheme_factory);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Simulates `intervals` further deadline intervals (resumable).
  void run(IntervalIndex intervals);

  /// Registers an end-of-interval observer (may be called multiple times).
  void add_observer(IntervalObserver observer);

  /// Attaches a protocol tracer to the whole stack (medium + MAC layers).
  /// Not owned; pass nullptr to detach. Interval boundaries are recorded by
  /// the network itself. Tracing needs a one-cell network: attaching a
  /// non-null tracer to a multi-cell plan aborts.
  void attach_tracer(sim::Tracer* tracer);

  /// Attaches a metrics registry to the whole stack (medium + MAC layers;
  /// not owned; pass nullptr to detach). While attached, the network
  /// snapshots the debt vector and delivery counts into the registry at
  /// every interval boundary; derived end-of-run rates come from
  /// obs::collect_network_metrics. Zero overhead when detached (one null
  /// check per interval). A one-cell network writes its medium/MAC
  /// instruments straight into `registry`; on a multi-cell plan each cell
  /// writes into a private registry (no cross-thread sharing) and
  /// merge_cell_metrics_into() folds them into an export target.
  void attach_metrics(obs::MetricsRegistry* registry);

  [[nodiscard]] const stats::LinkStatsCollector& stats() const { return stats_; }
  /// Network-wide debt ledger. It mirrors the per-cell trackers — per-link
  /// debt arithmetic is local, so the mirror is exact.
  [[nodiscard]] const core::DebtTracker& debts() const { return debts_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  // ---- cell plan ----------------------------------------------------------
  /// Number of cells (1 unless the partition cut the topology).
  [[nodiscard]] std::size_t cell_count() const;
  /// Number of parallel groups in the plan (independent of the job count).
  [[nodiscard]] std::size_t group_count() const;
  /// Global link ids of one cell, ascending.
  [[nodiscard]] std::span<const LinkId> cell_links(std::size_t cell) const;
  /// The MacScheme instance serving one cell.
  [[nodiscard]] const mac::MacScheme& cell_scheme(std::size_t cell) const;
  /// Coordinator barrier rounds so far (0 on cut-free plans, which skip the
  /// coordinator entirely).
  [[nodiscard]] std::uint64_t coordinator_rounds() const;
  /// Wall-clock work and barrier-wait time per execution lane (min(groups,
  /// shard jobs) lanes; lane 0 is the calling thread), and the lane rounds
  /// run (one per interval on cut-free plans; otherwise the coordinator
  /// rounds plus three per interval: begin, settle, end). Profile output
  /// only: wall-clock data never enters a metrics registry.
  [[nodiscard]] std::span<const util::LaneRunner::LaneStats> lane_stats() const;
  [[nodiscard]] std::uint64_t lane_rounds() const;

  // ---- engine/medium facades (summed or routed over cells) ----------------
  [[nodiscard]] TimePoint now() const;
  [[nodiscard]] std::uint64_t events_executed() const;  ///< summed over cells
  [[nodiscard]] std::uint64_t event_reallocs() const;   ///< summed over cells
  /// Channel accounting summed over cells.
  [[nodiscard]] phy::MediumCounters medium_counters() const;
  /// Per-link accounting, addressed by GLOBAL link id.
  [[nodiscard]] const phy::LinkCounters& link_counters(LinkId link) const;
  /// Global-view busy time: the per-cell global views summed — concurrent
  /// activity in different cells double-counts relative to the union (a
  /// documented approximation; CSV outputs never read it).
  [[nodiscard]] Duration global_sense_busy_time() const;
  /// One node's carrier-sense busy time (GLOBAL id). Exact: a node hears
  /// only links of its own cell, since no sense relation crosses a cell.
  [[nodiscard]] Duration node_sense_busy_time(LinkId node) const;
  /// One link's row of the pairwise collision ledger: `out` is replaced by
  /// every (other, count) with a nonzero count of collision events between
  /// `link` and `other`, other ascending (GLOBAL ids, the self pair
  /// included). Intra-cell pairs come from the owning Medium, cross-cell
  /// pairs from the cut resolver's ledger. Walks only those rows, so a
  /// whole-network sweep is O(ledger size), not O(N²).
  void collision_row(LinkId link, std::vector<phy::PairCount>& out) const;

  /// One cell's Medium. Read-only: counters, topology and engine-shape
  /// diagnostics such as sense_closed() / interference_closed().
  [[nodiscard]] const phy::Medium& cell_medium(std::size_t cell) const;

  /// Folds every cell's private metrics registry into `target` (counters
  /// add, gauges last-write-win, histograms/sketches merge). No-op on a
  /// one-cell network. Call exactly once per run, at collect time.
  void merge_cell_metrics_into(obs::MetricsRegistry& target) const;

  /// Per-subsystem byte accounting of the network's long-lived state
  /// (DESIGN §4j). `arena_*` cover the shared arena backing the SoA blocks;
  /// the per-subsystem figures attribute who asked for the bytes (arena
  /// spans count under their subsystem, not double-counted as arena).
  struct MemoryBreakdown {
    std::size_t arena_reserved = 0;  ///< bytes the arena holds from malloc
    std::size_t arena_used = 0;      ///< bytes handed out to subsystems
    std::size_t arrivals = 0;        ///< arrival kernel tables
    std::size_t sim_events = 0;      ///< event-queue slot pools + heaps
    std::size_t phy = 0;             ///< per-link medium state, all cells
    std::size_t mac = 0;             ///< per-link scheme state, all cells
  };
  [[nodiscard]] MemoryBreakdown memory_breakdown() const;

  /// Total timely-throughput deficiency so far (Definition 1).
  [[nodiscard]] double total_deficiency() const;

 private:
  struct Cell;
  class CutState;
  struct Engine;

  void build_engine(sim::ShardPlan plan, const mac::SchemeFactory& scheme_factory);
  void run_interval(IntervalIndex k, TimePoint start, TimePoint end);
  void finish_interval(IntervalIndex k, TimePoint end);

  NetworkConfig config_;
  /// Backs every cell's cold per-link SoA blocks and the arrival kernel
  /// tables; declared before the consumers so it outlives them (members
  /// destroy in reverse order).
  util::Arena arena_;
  core::DebtTracker debts_;
  stats::LinkStatsCollector stats_;
  Rng arrival_rng_;
  ArrivalKernel arrival_kernel_;  ///< central arrival sampling (non-joint runs)
  std::unique_ptr<Engine> engine_;  ///< the plan and its cells; never null
  std::vector<IntervalObserver> observers_;
  sim::Tracer* tracer_ = nullptr;
  IntervalIndex next_interval_ = 0;

  // Caller-owned interval buffers (buffer-ownership convention, DESIGN §4g):
  // pre-sized from NetworkConfig at construction so the per-interval loop
  // never allocates; schemes and observers see spans over them.
  std::vector<int> arrivals_;
  std::vector<int> delivered_;

  // Metric handles cached at attach time; all null when detached. The
  // per-interval series (debt L-inf, total deliveries, per-link debt) are
  // quantile sketches rather than fixed-bucket histograms: no hand-picked
  // bounds, bounded memory on arbitrary horizons, and mergeable across
  // replications (DESIGN §4h).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge* debt_linf_gauge_ = nullptr;
  obs::QuantileSketch* debt_linf_sketch_ = nullptr;
  obs::QuantileSketch* deliveries_sketch_ = nullptr;
  std::vector<obs::Gauge*> debt_gauges_;             ///< one per link
  std::vector<obs::QuantileSketch*> debt_sketches_;  ///< one per link
};

}  // namespace rtmac::net
