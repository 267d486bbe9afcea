#include "net/network.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "sim/shard_barrier.hpp"
#include "sim/shard_partitioner.hpp"
#include "sim/sharded_simulator.hpp"
#include "stats/deficiency.hpp"
#include "util/check.hpp"
#include "util/lane_runner.hpp"

namespace rtmac::net {

// ---- CutState ---------------------------------------------------------------

/// Cross-shard conflict resolver and collision ledger. Cut-link records are
/// appended only at serial coordinator barriers; during the parallel phase
/// cells read them concurrently (immutable between barriers) and each cell
/// writes pair counts only into its own per-cell buffer, so the resolver is
/// race-free without locks.
class Network::CutState final : public phy::CutResolver {
 public:
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  void build(const sim::ShardPlan& plan) {
    const std::vector<sim::CutEdge>& edges = plan.cut_conflicts;
    slot_of_.assign(plan.num_links(), kNoSlot);
    auto slot = [this, &plan](LinkId g) {
      if (slot_of_[g] == kNoSlot) {
        slot_of_[g] = static_cast<std::uint32_t>(partners_.size());
        partners_.emplace_back();
        records_.emplace_back();
        owner_cell_.push_back(plan.cell_of[g]);
      }
      return slot_of_[g];
    };
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const sim::CutEdge e = edges[i];
      const std::uint32_t sa = slot(e.a);
      partners_[sa].push_back(PairRef{e.b, i});
      const std::uint32_t sb = slot(e.b);
      partners_[sb].push_back(PairRef{e.a, i});
    }
    pair_counts_.assign(plan.cells.size(), std::vector<std::uint64_t>(edges.size(), 0));
  }

  /// Barrier phase (serial): remember one exported cut transmission.
  /// Records of sense-only speakers (no cut conflict edge) are not needed
  /// for resolution and are dropped here.
  void add_record(const sim::CutTxRecord& r) RTMAC_REQUIRES(sim::shard_barrier) {
    const std::uint32_t slot = slot_of_[r.link];
    if (slot != kNoSlot) records_[slot].push_back(r);
  }

  /// Interval boundary (serial): the gap rule guarantees no transmission
  /// crosses it, so all records are dead. Serial like the barrier phase, so
  /// it borrows the same phantom capability.
  void clear_records() RTMAC_REQUIRES(sim::shard_barrier) {
    for (auto& v : records_) v.clear();
  }

  // phy::CutResolver. Called by a cell's Medium when a cut-link completion
  // executes; the conservative window protocol guarantees every overlapping
  // remote transmission has already been recorded, so the answer is exact.
  [[nodiscard]] bool resolve_cut_tx(LinkId link, TimePoint start, TimePoint end) override {
    const std::uint32_t slot = slot_of_[link];
    RTMAC_ASSERT(slot != kNoSlot, "cut resolution for a non-cut link");
    bool collided = false;
    std::vector<std::uint64_t>& counts = pair_counts_[owner_cell_[slot]];
    for (const PairRef& pr : partners_[slot]) {
      for (const sim::CutTxRecord& r : records_[slot_of_[pr.partner]]) {
        if (r.start < end && start < r.end) {
          collided = true;
          // Each overlapping transmission pair is counted exactly once: by
          // the lower-id side's completion (the other side sees the mirror
          // overlap and skips).
          if (link < pr.partner) ++counts[pr.pair_idx];
        }
      }
    }
    return collided;
  }

  /// Appends every nonzero cross-cell pair count of `link` (partner global
  /// id ascending — partners_ follows the sorted edge list).
  void append_row(LinkId link, std::vector<phy::PairCount>& out) const {
    const std::uint32_t slot = slot_of_[link];
    if (slot == kNoSlot) return;
    for (const PairRef& pr : partners_[slot]) {
      std::uint64_t total = 0;
      for (const auto& counts : pair_counts_) total += counts[pr.pair_idx];
      if (total > 0) out.push_back(phy::PairCount{pr.partner, total});
    }
  }

 private:
  struct PairRef {
    LinkId partner;         ///< the other endpoint (global id)
    std::size_t pair_idx;   ///< index into the plan's cut_conflicts / pair_counts_ rows
  };

  std::vector<std::uint32_t> slot_of_;                ///< global link -> slot
  std::vector<std::vector<PairRef>> partners_;        ///< per slot
  std::vector<std::vector<sim::CutTxRecord>> records_;  ///< per slot, in drain order
  std::vector<std::uint32_t> owner_cell_;             ///< per slot
  std::vector<std::vector<std::uint64_t>> pair_counts_;  ///< [cell][pair] — no races
};

// ---- Cell -------------------------------------------------------------------

/// One shard cell: a full engine stack (Simulator + Medium + scheme + debt
/// slice) over the induced subgraph of one partition cell. Member order is
/// load-bearing: the scheme holds references to success_prob and debts.
struct Network::Cell final : public sim::ShardCell {
  Network& net;
  std::uint32_t index;
  std::vector<LinkId> links;       ///< global ids, ascending
  ProbabilityVector success_prob;  ///< sliced by global id
  core::DebtTracker debts;         ///< sliced; mirrors the global ledger
  sim::Simulator sim;
  std::unique_ptr<phy::Medium> medium;
  std::unique_ptr<mac::MacScheme> scheme;
  std::unique_ptr<obs::MetricsRegistry> registry;  ///< private per-cell instruments
  std::vector<int> arrivals;
  std::vector<int> delivered;
  std::vector<phy::CutTxExport> outbox_scratch;

  Cell(Network& n, std::uint32_t idx, std::vector<LinkId> ls, RateVector q_slice,
       ProbabilityVector p_slice)
      : net{n},
        index{idx},
        links{std::move(ls)},
        success_prob{std::move(p_slice)},
        debts{std::move(q_slice)},
        arrivals(links.size(), 0),
        delivered(links.size(), 0) {}

  // sim::ShardCell. The thread-safety analysis does not inherit attributes
  // from the base-class declarations, so the phase annotations are repeated
  // here — without them the bodies could not call the Medium's
  // barrier-phase-only entry points.
  [[nodiscard]] TimePoint clock() const override { return sim.now(); }
  bool stage_outbox() override RTMAC_REQUIRES(sim::shard_barrier) {
    medium->drain_cut_outbox(outbox_scratch);
    return !outbox_scratch.empty();
  }
  void drain_outbox(std::vector<sim::CutTxRecord>& into) override
      RTMAC_REQUIRES(sim::shard_barrier);
  void deliver_remote(const sim::CutTxRecord& record) override
      RTMAC_REQUIRES(sim::shard_barrier) {
    medium->inject_remote_activity(record.link, record.start, record.end);
  }
  void begin_window(TimePoint bound) override RTMAC_REQUIRES(sim::shard_barrier) {
    medium->set_resolution_horizon(bound);
  }
  /// Adaptive-lookahead probe: nothing observable happens in this cell
  /// before its next pending event, so neighbors may run up to that instant
  /// (see sim/sharded_simulator.hpp for the exactness argument). An idle
  /// cell reports no_run_limit() and stops throttling its neighbors.
  [[nodiscard]] TimePoint next_activity_bound() override RTMAC_REQUIRES(sim::shard_barrier) {
    return sim.next_event_time();
  }
  void run_window(TimePoint horizon) override RTMAC_EXCLUDES(sim::shard_barrier) {
    sim.run_until(horizon);
  }
};

// ---- Engine -----------------------------------------------------------------

/// The plan and everything that executes it.
struct Network::Engine {
  sim::ShardPlan plan;
  std::vector<LinkId> local_of;  ///< global id -> index within its cell
  std::unique_ptr<CutState> cut;
  std::vector<std::unique_ptr<Cell>> cells;
  std::vector<sim::ShardCell*> cell_ptrs;
  /// lanes[l] = the cells lane l runs: whole plan groups folded onto the
  /// runner's lanes. Execution only — results never depend on it.
  std::vector<std::vector<std::uint32_t>> lanes;
  std::unique_ptr<util::LaneRunner> runner;            ///< never null
  std::unique_ptr<sim::ShardCoordinator> coordinator;  ///< null = cut-free fast path
};

void Network::Cell::drain_outbox(std::vector<sim::CutTxRecord>& into)
    RTMAC_REQUIRES(sim::shard_barrier) {
  for (const phy::CutTxExport& e : outbox_scratch) {
    const sim::CutTxRecord r{e.link, index, e.start, e.end};
    net.engine_->cut->add_record(r);
    into.push_back(r);
  }
  outbox_scratch.clear();
}

// ---- construction -----------------------------------------------------------

namespace {

/// The cell plan for `config`. With `shards == 0` and no auto-sharding, or
/// without a topology (the paper's complete domain), every link shares one
/// cell and the partitioner is not consulted; otherwise the conflict∪sense
/// graph is partitioned.
sim::ShardPlan plan_cells(const NetworkConfig& config) {
  const std::size_t n = config.num_links();
  const std::size_t target =
      config.shards > 0 ? config.shards
                        : (config.auto_shard ? util::hardware_threads() : 0);
  if (target == 0) return sim::ShardPlan::single_cell(n);
  if (config.sparse_topology != nullptr) {
    // Partition from the sparse lists in place — a 10^6-link topology's
    // adjacency is hundreds of MB, so no deep copy on this path.
    return sim::partition_topology(config.sparse_topology->conflict,
                                   config.sparse_topology->sense, target);
  }
  if (!config.topology.has_value()) return sim::ShardPlan::single_cell(n);
  const phy::InterferenceGraph& g = *config.topology;
  sim::AdjacencyLists conflict(n);
  sim::AdjacencyLists sense(n);
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b = 0; b < n; ++b) {
      if (a == b) continue;
      if (g.conflicts(a, b)) conflict[a].push_back(b);
      if (g.senses(a, b)) sense[a].push_back(b);
    }
  }
  return sim::partition_topology(conflict, sense, target);
}

}  // namespace

Network::Network(NetworkConfig config, const mac::SchemeFactory& scheme_factory)
    : config_{std::move(config)},
      debts_{config_.requirements.q()},
      stats_{config_.num_links()},
      arrival_rng_{config_.seed, /*stream_id=*/0xA221BA15ULL},
      arrivals_(config_.interval_buffer_hint(), 0),
      delivered_(config_.interval_buffer_hint(), 0) {
  std::string error;
  if (!config_.validate(&error)) {
    std::fprintf(stderr, "rtmac: invalid NetworkConfig: %s\n", error.c_str());
    std::abort();
  }
  // Central arrival sampling is table-driven on every non-joint run; the
  // kernel reproduces the scalar per-link draw sequence exactly (see
  // net/arrival_kernel.hpp).
  if (config_.joint_arrivals == nullptr) {
    if (!config_.arrivals.empty()) {
      arrival_kernel_.build(config_.arrivals, arena_);
    } else {
      arrival_kernel_.build_uniform(*config_.uniform_arrivals, config_.num_links(), arena_);
    }
  }
  build_engine(plan_cells(config_), scheme_factory);
}

Network::~Network() = default;

void Network::build_engine(sim::ShardPlan plan, const mac::SchemeFactory& scheme_factory) {
  const std::size_t n = config_.num_links();
  engine_ = std::make_unique<Engine>();
  Engine& eng = *engine_;
  eng.plan = std::move(plan);
  const std::size_t num_cells = eng.plan.cells.size();
  const bool one_cell = num_cells == 1;
  eng.local_of.assign(n, 0);
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    const std::vector<LinkId>& links = eng.plan.cells[ci];
    for (std::size_t j = 0; j < links.size(); ++j) {
      eng.local_of[links[j]] = static_cast<LinkId>(j);
    }
  }
  eng.cut = std::make_unique<CutState>();
  eng.cut->build(eng.plan);

  std::vector<std::uint8_t> has_cut_conflict(n, 0);
  std::vector<std::uint8_t> is_cut_speaker(n, 0);
  for (const sim::CutEdge& e : eng.plan.cut_conflicts) {
    has_cut_conflict[e.a] = 1;
    has_cut_conflict[e.b] = 1;
  }
  for (const sim::CutSense& s : eng.plan.cut_senses) is_cut_speaker[s.speaker] = 1;

  // Remote-sense registrations grouped per listening cell: (speaker global
  // id, local listener node).
  std::vector<std::vector<std::pair<LinkId, LinkId>>> remote(num_cells);
  for (const sim::CutSense& s : eng.plan.cut_senses) {
    remote[eng.plan.cell_of[s.listener]].emplace_back(s.speaker, eng.local_of[s.listener]);
  }

  const RateVector q = config_.requirements.q();
  eng.cells.reserve(num_cells);
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    const std::vector<LinkId>& links = eng.plan.cells[ci];
    RateVector q_slice;
    ProbabilityVector p_slice;
    q_slice.reserve(links.size());
    p_slice.reserve(links.size());
    for (const LinkId g : links) {
      q_slice.push_back(q[g]);
      p_slice.push_back(config_.success_prob[g]);
    }
    auto cell = std::make_unique<Cell>(*this, static_cast<std::uint32_t>(ci), links,
                                       std::move(q_slice), std::move(p_slice));

    // A sense-closed cell (no local node hears another cell) keeps its
    // honestly-computed completeness flags: a clique cell then runs the
    // single-view sensing and shared-clock batch paths, cut conflict edges
    // or not — the cut resolver settles their outcomes, not sensing. Only
    // the burst path needs more (interference-closed, settled by
    // configure_shard). Without a topology the one cell is the paper's
    // complete collision domain. DESIGN §4i.
    const auto flags = remote[ci].empty()
                           ? phy::InterferenceGraph::SubgraphFlags::kKeepCompleteness
                           : phy::InterferenceGraph::SubgraphFlags::kClearCompleteness;
    phy::InterferenceGraph cell_graph =
        config_.sparse_topology != nullptr
            ? phy::induced_subgraph(*config_.sparse_topology, cell->links, flags)
        : config_.topology.has_value() ? config_.topology->induced(cell->links, flags)
                                       : phy::InterferenceGraph::complete(links.size());
    // validate() admits a custom channel model only where the plan has one
    // cell (no shards, no auto-sharding).
    std::unique_ptr<phy::ChannelModel> channel =
        config_.channel_factory ? config_.channel_factory()
                                : std::make_unique<phy::StaticChannel>(cell->success_prob);
    RTMAC_REQUIRE(channel != nullptr && channel->num_links() == links.size(),
                  "channel model size must match the network");
    cell->medium = std::make_unique<phy::Medium>(cell->sim, std::move(channel),
                                                 std::move(cell_graph), config_.seed, &arena_);

    // Shard mode re-keys loss draws per global link so they are independent
    // of the partition; one cell has nothing to be independent of, and a
    // complete graph must keep the Medium's shared loss stream.
    std::size_t num_speakers = 0;
    if (!one_cell) {
      phy::ShardMediumConfig smc;
      smc.global_ids = cell->links;
      smc.conflict_cut.resize(links.size(), 0);
      smc.exported.resize(links.size(), 0);
      for (std::size_t j = 0; j < links.size(); ++j) {
        smc.conflict_cut[j] = has_cut_conflict[links[j]];
        smc.exported[j] =
            static_cast<std::uint8_t>(has_cut_conflict[links[j]] | is_cut_speaker[links[j]]);
      }
      smc.resolver = eng.cut.get();
      cell->medium->configure_shard(std::move(smc));

      std::vector<std::pair<LinkId, LinkId>>& regs = remote[ci];
      std::sort(regs.begin(), regs.end());
      for (std::size_t i = 0; i < regs.size();) {
        const LinkId speaker = regs[i].first;
        std::vector<LinkId> nodes;
        for (; i < regs.size() && regs[i].first == speaker; ++i) nodes.push_back(regs[i].second);
        cell->medium->register_remote_sense(speaker, std::move(nodes));
        ++num_speakers;
      }
    }
    mac::SchemeContext ctx{cell->sim,
                           *cell->medium,
                           config_.phy,
                           config_.interval_length,
                           links.size(),
                           cell->success_prob,
                           cell->debts,
                           config_.seed,
                           std::span<const LinkId>{cell->links},
                           n};
    ctx.arena = &arena_;
    cell->scheme = scheme_factory(ctx);
    RTMAC_REQUIRE(cell->scheme != nullptr);
    RTMAC_REQUIRE(one_cell || cell->scheme->shardable(),
                  "scheme requires global knowledge and cannot run on a multi-cell plan");
    // The reserve covers the PEAK number of simultaneously pending events,
    // not the per-interval total: the scheme declares its per-link timer
    // bound (batch shared-clock schemes keep ONE domain expiry event plus at
    // most one in-flight completion per link; scalar engines add parked
    // per-link expiries), and each remote speaker holds at most two edges
    // (busy + idle) per in-flight injection. Sized AFTER scheme construction
    // so the bound can depend on the layout the scheme chose; at 10^5+ cells
    // the pool is the dominant per-cell footprint, so a tight bound is worth
    // real memory at the million-link scale.
    // engine.events.reallocs == 0 in the bench gate proves the bound holds.
    cell->sim.reserve_events(links.size() * cell->scheme->pending_events_per_link() + 16 +
                             4 * num_speakers);
    eng.cells.push_back(std::move(cell));
  }
  eng.cell_ptrs.reserve(num_cells);
  for (const auto& cell : eng.cells) eng.cell_ptrs.push_back(cell.get());

  // One lane per worker: whole groups fold onto `jobs` lanes, and the
  // calling thread serves as lane 0, so one group starts no thread.
  const std::size_t groups = eng.plan.groups.size();
  const std::size_t jobs =
      groups <= 1 ? 1
                  : std::min(groups, config_.shard_jobs != 0 ? config_.shard_jobs
                                                             : util::hardware_threads());
  eng.lanes = eng.plan.lanes(jobs);
  eng.runner = std::make_unique<util::LaneRunner>(jobs);

  if (!eng.plan.cut_conflicts.empty() || !eng.plan.cut_senses.empty()) {
    // Cells coupled by ANY cut relation bound each other's windows. Sense
    // cuts only require listener-waits-for-speaker, but the symmetric form
    // is simpler and merely conservative.
    std::vector<std::vector<std::uint32_t>> cut_neighbors(num_cells);
    auto couple = [&eng, &cut_neighbors](LinkId x, LinkId y) {
      const std::uint32_t cx = eng.plan.cell_of[x];
      const std::uint32_t cy = eng.plan.cell_of[y];
      if (cx != cy) {
        cut_neighbors[cx].push_back(cy);
        cut_neighbors[cy].push_back(cx);
      }
    };
    for (const sim::CutEdge& e : eng.plan.cut_conflicts) couple(e.a, e.b);
    for (const sim::CutSense& s : eng.plan.cut_senses) couple(s.listener, s.speaker);
    for (auto& v : cut_neighbors) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    eng.coordinator = std::make_unique<sim::ShardCoordinator>(
        eng.cell_ptrs, std::move(cut_neighbors), sim::CutListeners::from_plan(eng.plan),
        eng.lanes, *eng.runner);
  }
}

// ---- interval loop ----------------------------------------------------------

void Network::add_observer(IntervalObserver observer) {
  observers_.push_back(std::move(observer));
}

void Network::attach_tracer(sim::Tracer* tracer) {
  RTMAC_REQUIRE(tracer == nullptr || cell_count() == 1,
                "protocol tracing requires a one-cell network");
  tracer_ = tracer;
  engine_->cells.front()->medium->set_tracer(tracer);
}

void Network::attach_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  // One cell writes its medium/MAC instruments straight into `registry`, so
  // in-run streams carry them. Several cells each get a private registry so
  // the parallel phase never shares one; merge_cell_metrics_into folds them.
  const bool private_registries = registry != nullptr && cell_count() > 1;
  for (auto& cell : engine_->cells) {
    if (private_registries) {
      cell->registry = std::make_unique<obs::MetricsRegistry>();
      cell->medium->set_metrics(cell->registry.get());
    } else {
      cell->medium->set_metrics(registry);
      cell->registry.reset();
    }
  }
  debt_gauges_.clear();
  debt_sketches_.clear();
  if (registry == nullptr) {
    debt_linf_gauge_ = nullptr;
    debt_linf_sketch_ = nullptr;
    deliveries_sketch_ = nullptr;
    return;
  }
  debt_linf_gauge_ = &registry->gauge("core.debt_linf");
  // Per-interval distributions are quantile sketches: bounded memory with a
  // distribution-independent rank guarantee, so they survive any horizon
  // and any debt scale without hand-picked bucket bounds.
  debt_linf_sketch_ = &registry->sketch("core.debt_linf_per_interval");
  deliveries_sketch_ = &registry->sketch("net.deliveries_per_interval");
  debt_gauges_.reserve(config_.num_links());
  debt_sketches_.reserve(config_.num_links());
  // Per-link debt series use a smaller compactor: one sketch per link must
  // stay cheap at large N, and per-link debt spans a narrower range than
  // the network-wide L-inf series.
  const obs::SketchOptions per_link{/*k=*/64, /*exact_threshold=*/256};
  for (LinkId n = 0; n < config_.num_links(); ++n) {
    debt_gauges_.push_back(&registry->gauge(obs::link_metric("core.debt", n)));
    debt_sketches_.push_back(
        &registry->sketch(obs::link_metric("core.debt_per_interval", n), per_link));
  }
}

void Network::run(IntervalIndex intervals) {
  const std::size_t n_links = config_.num_links();
  const std::span<int> arrivals{arrivals_};

  for (IntervalIndex i = 0; i < intervals; ++i) {
    const IntervalIndex k = next_interval_++;
    const TimePoint start = TimePoint::origin() +
                            static_cast<std::int64_t>(k) * config_.interval_length;
    const TimePoint end = start + config_.interval_length;

    // Arrivals are sampled centrally in global link order, so the sampled
    // sequence is independent of the partition. The kernel
    // consumes the stream exactly as the per-link virtual loop would.
    if (config_.joint_arrivals != nullptr) {
      config_.joint_arrivals->sample_into(arrival_rng_, arrivals);
    } else {
      arrival_kernel_.sample_into(arrival_rng_, arrivals.first(n_links));
    }

    run_interval(k, start, end);
    finish_interval(k, end);
  }
}

void Network::run_interval(IntervalIndex k, TimePoint start, TimePoint end) {
  Engine& eng = *engine_;
  if (tracer_ != nullptr) {
    tracer_->record(start, sim::TraceKind::kIntervalStart, sim::kNoLink,
                    static_cast<std::int64_t>(k));
  }

  // Interval edges are cell-local, so each lane runs them for its own cells
  // (which keeps a cell's state in its lane's cache). Cells read disjoint
  // slots of arrivals_ and write disjoint slots of delivered_.
  auto begin_cell = [this, k, start, end](Cell& cell) {
    RTMAC_ASSERT(cell.sim.now() == start, "interval boundaries drifted");
    for (std::size_t j = 0; j < cell.links.size(); ++j) {
      cell.arrivals[j] = arrivals_[cell.links[j]];
    }
    cell.medium->note_interval_start(start);  // anchors the delivery-latency series
    cell.scheme->begin_interval(k, cell.arrivals, end);
  };
  auto end_cell = [this](Cell& cell) {
    RTMAC_ASSERT(!cell.medium->busy(), "a transmission overran the interval boundary (gap rule)");
    cell.scheme->end_interval(cell.delivered);
    cell.debts.on_interval_end(cell.delivered);
    for (std::size_t j = 0; j < cell.links.size(); ++j) {
      delivered_[cell.links[j]] = cell.delivered[j];
    }
  };

  if (eng.coordinator != nullptr) {
    // Cut path: interval edges in the lanes, windowed advancement between.
    auto begin_lane = [&eng, &begin_cell](std::size_t lane) {
      for (const std::uint32_t ci : eng.lanes[lane]) begin_cell(*eng.cells[ci]);
    };
    auto end_lane = [&eng, &end_cell](std::size_t lane) {
      for (const std::uint32_t ci : eng.lanes[lane]) end_cell(*eng.cells[ci]);
    };
    eng.runner->run(begin_lane);
    eng.coordinator->advance_to(end);
    eng.runner->run(end_lane);
    {
      // Interval boundary is serial — same discipline as the window barrier.
      const util::PhantomLock barrier{sim::shard_barrier};
      eng.cut->clear_records();
    }
  } else {
    // Cut-free fast path: cells are fully independent, so the whole interval
    // folds into one round of lanes.
    auto run_lane = [&eng, &begin_cell, &end_cell, end](std::size_t lane) {
      for (const std::uint32_t ci : eng.lanes[lane]) {
        Cell& cell = *eng.cells[ci];
        begin_cell(cell);
        cell.sim.run_until(end);
        end_cell(cell);
      }
    };
    eng.runner->run(run_lane);
  }

  if (tracer_ != nullptr) {
    tracer_->record(end, sim::TraceKind::kIntervalEnd, sim::kNoLink,
                    static_cast<std::int64_t>(k));
  }
}

void Network::finish_interval(IntervalIndex k, TimePoint end) {
  const std::size_t n_links = config_.num_links();
  debts_.on_interval_end(delivered_);
  stats_.record(arrivals_, delivered_);
  if (metrics_ != nullptr) {
    int total_delivered = 0;
    for (std::size_t n = 0; n < n_links; ++n) {
      total_delivered += delivered_[n];
      const double debt = debts_.debt(static_cast<LinkId>(n));
      debt_gauges_[n]->set(debt);
      debt_sketches_[n]->update(debt);
    }
    debt_linf_gauge_->set(debts_.linf());
    debt_linf_sketch_->update(debts_.linf());
    deliveries_sketch_->update(static_cast<double>(total_delivered));
    // In-run time-series export: one whole-registry snapshot every
    // cadence intervals, stamped with sim time only (stream_tick is a
    // single branch when no stream sink is attached).
    metrics_->stream_tick(k, end.ns());
  }
  for (const auto& obs : observers_) obs(k, arrivals_, delivered_);
}

// ---- accessors and facades --------------------------------------------------

std::size_t Network::cell_count() const { return engine_->cells.size(); }

std::size_t Network::group_count() const { return engine_->plan.groups.size(); }

std::span<const LinkId> Network::cell_links(std::size_t cell) const {
  return engine_->cells[cell]->links;
}

const mac::MacScheme& Network::cell_scheme(std::size_t cell) const {
  return *engine_->cells[cell]->scheme;
}

std::uint64_t Network::coordinator_rounds() const {
  return engine_->coordinator != nullptr ? engine_->coordinator->rounds() : 0;
}

std::span<const util::LaneRunner::LaneStats> Network::lane_stats() const {
  return engine_->runner->lane_stats();
}

std::uint64_t Network::lane_rounds() const { return engine_->runner->rounds(); }

TimePoint Network::now() const { return engine_->cells.front()->sim.now(); }

std::uint64_t Network::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& cell : engine_->cells) total += cell->sim.events_executed();
  return total;
}

std::uint64_t Network::event_reallocs() const {
  std::uint64_t total = 0;
  for (const auto& cell : engine_->cells) total += cell->sim.event_reallocs();
  return total;
}

phy::MediumCounters Network::medium_counters() const {
  phy::MediumCounters out;
  for (const auto& cell : engine_->cells) {
    const phy::MediumCounters& c = cell->medium->counters();
    out.data_tx += c.data_tx;
    out.empty_tx += c.empty_tx;
    out.delivered += c.delivered;
    out.channel_losses += c.channel_losses;
    out.collisions += c.collisions;
    out.busy_time += c.busy_time;
    out.collided_time += c.collided_time;
  }
  return out;
}

const phy::LinkCounters& Network::link_counters(LinkId link) const {
  const Engine& eng = *engine_;
  return eng.cells[eng.plan.cell_of[link]]->medium->link_counters(eng.local_of[link]);
}

Duration Network::global_sense_busy_time() const {
  Duration total;
  for (const auto& cell : engine_->cells) {
    total += cell->medium->sense_busy_time(phy::Medium::kAllNodes);
  }
  return total;
}

Duration Network::node_sense_busy_time(LinkId node) const {
  const Engine& eng = *engine_;
  return eng.cells[eng.plan.cell_of[node]]->medium->sense_busy_time(eng.local_of[node]);
}

void Network::collision_row(LinkId link, std::vector<phy::PairCount>& out) const {
  out.clear();
  const Engine& eng = *engine_;
  const Cell& cell = *eng.cells[eng.plan.cell_of[link]];
  cell.medium->collision_row(eng.local_of[link], out);
  // Cell links are ascending, so the local row maps to an ascending global
  // row; the cut partners are merged into it.
  for (phy::PairCount& pc : out) pc.other = cell.links[pc.other];
  const auto local_end = static_cast<std::ptrdiff_t>(out.size());
  eng.cut->append_row(link, out);
  std::inplace_merge(out.begin(), out.begin() + local_end, out.end(),
                     [](const phy::PairCount& x, const phy::PairCount& y) {
                       return x.other < y.other;
                     });
}

const phy::Medium& Network::cell_medium(std::size_t cell) const {
  return *engine_->cells[cell]->medium;
}

void Network::merge_cell_metrics_into(obs::MetricsRegistry& target) const {
  for (const auto& cell : engine_->cells) {
    if (cell->registry != nullptr) target.merge_from(*cell->registry);
  }
}

Network::MemoryBreakdown Network::memory_breakdown() const {
  MemoryBreakdown mb;
  mb.arena_reserved = arena_.bytes_reserved();
  mb.arena_used = arena_.bytes_used();
  mb.arrivals = arrival_kernel_.memory_bytes();
  for (const auto& cell : engine_->cells) {
    mb.sim_events += cell->sim.event_memory_bytes();
    mb.phy += cell->medium->memory_bytes();
    mb.mac += cell->scheme->memory_bytes();
  }
  return mb;
}

double Network::total_deficiency() const {
  return stats::total_deficiency(stats_, config_.requirements.q());
}

}  // namespace rtmac::net
