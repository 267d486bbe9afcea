// The shared wireless medium: a channel core over a pluggable interference
// topology.
//
// The channel core owns the loss process and transmission bookkeeping; the
// InterferenceGraph decides which overlaps collide and who hears what:
//   * a transmission collides only with overlapping transmissions on
//     CONFLICTING links (the complete graph reproduces the paper's
//     Section II-A rule: every overlap collides);
//   * carrier sensing is a per-node view — node n's medium is busy iff some
//     link n senses is transmitting. With complete sensing every view
//     coincides with the global one, which is exactly the paper's model;
//   * an interference-free transmission on link n is delivered with
//     probability p_n (i.i.d. across transmissions, the "unreliable
//     transmissions" of the title);
//   * devices sense busy/idle but cannot decode other devices' packets.
// Transmission intervals are half-open [start, start+airtime): a packet
// ending at t does not collide with one starting at t, on any topology.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "phy/channel_model.hpp"
#include "phy/interference.hpp"
#include "sim/shard_barrier.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/inplace_function.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace rtmac::phy {

/// Result of one transmission attempt.
enum class TxOutcome : std::uint8_t {
  kDelivered,    ///< interference-free and passed the Bernoulli(p_n) draw
  kChannelLoss,  ///< interference-free but lost to the unreliable channel
  kCollision,    ///< overlapped with at least one conflicting transmission
};

/// What is being transmitted. Empty packets claim priority in the DP
/// protocol; they occupy airtime but carry no payload to deliver.
enum class PacketKind : std::uint8_t { kData, kEmpty };

/// Observer interface for carrier sensing. Devices register to learn about
/// busy/idle transitions of one sense view (their own node's, or the global
/// any-transmission view); that is all a paper-compliant device may learn
/// about other links.
///
/// Re-entrancy rule: listener callbacks must NOT call
/// Medium::start_transmission synchronously (other listeners would observe
/// transitions out of order). Schedule the transmission through the
/// Simulator instead — protocol timing always implies at least a zero-delay
/// event boundary. The Medium enforces this: a synchronous
/// start_transmission from inside a listener callback aborts the process.
class MediumListener {
 public:
  virtual ~MediumListener() = default;
  /// The observed sense view transitioned idle -> busy at virtual time `t`.
  virtual void on_medium_busy(TimePoint t) = 0;
  /// The observed sense view transitioned busy -> idle at virtual time `t`.
  virtual void on_medium_idle(TimePoint t) = 0;
};

/// One exported cut-link transmission occupying [start, end), reported in
/// the link's GLOBAL id. Shard cells hand these to the coordinator at
/// window barriers; the coordinator feeds them back into neighbor cells as
/// remote sense activity and into the cross-shard collision ledger.
struct CutTxExport {
  LinkId link = 0;
  TimePoint start;
  TimePoint end;
};

/// Resolver for cross-shard conflicts, implemented by the sharded Network.
/// The conservative coordinator guarantees that when a cut-link completion
/// executes, every conflicting neighbor cell's clock has passed it, so all
/// overlapping remote transmissions are already in the mailbox and the
/// answer is exact.
class CutResolver {
 public:
  virtual ~CutResolver() = default;
  /// Did the transmission on `global_link` over [start, end) overlap any
  /// remote transmission on a conflicting cut partner? Also accounts the
  /// overlapping pairs into the cross-shard collision ledger.
  [[nodiscard]] virtual bool resolve_cut_tx(LinkId global_link, TimePoint start,
                                            TimePoint end) = 0;
};

/// Shard-mode wiring for a cell's Medium: the local->global id map (loss
/// streams are re-keyed by global id so results do not depend on the
/// partition), which local links have cross-cell conflict edges (their
/// completions consult the resolver and bound the engine's run limit), and
/// which local links' transmissions must be exported at barriers. Only the
/// sharded Network and the coordinator may touch this machinery — enforced
/// by the shard-isolation lint rule.
struct ShardMediumConfig {
  std::vector<LinkId> global_ids;          ///< local link -> global link
  std::vector<std::uint8_t> conflict_cut;  ///< local link has a cut conflict edge
  std::vector<std::uint8_t> exported;      ///< local link's txs go to the outbox
  CutResolver* resolver = nullptr;         ///< borrowed; may be null when no cuts
};

/// One nonzero cell of a pairwise collision ledger row: `count` collision
/// events between the row's link and `other`.
struct PairCount {
  LinkId other = 0;
  std::uint64_t count = 0;
};

/// Aggregate channel accounting, exposed for capacity/overhead analysis.
struct MediumCounters {
  std::uint64_t data_tx = 0;         ///< data transmission attempts
  std::uint64_t empty_tx = 0;        ///< empty (priority-claim) transmissions
  std::uint64_t delivered = 0;       ///< data packets delivered
  std::uint64_t channel_losses = 0;  ///< clean data tx lost to Bernoulli(p)
  std::uint64_t collisions = 0;      ///< transmissions that collided
  Duration busy_time;                ///< summed transmission airtime; overlapping
                                     ///< transmissions double-count (use
                                     ///< sense_busy_time(kAllNodes) for occupancy)
  Duration collided_time;            ///< airtime wasted in collisions
};

/// Per-link slice of the channel accounting (airtime-fairness analysis).
struct LinkCounters {
  std::uint64_t data_tx = 0;
  std::uint64_t empty_tx = 0;
  std::uint64_t delivered = 0;
  std::uint64_t collisions = 0;
  Duration airtime;  ///< total airtime used by this link (all outcomes)
};

/// The shared channel. Owns the loss process; notifies listeners of their
/// sense view's busy/idle transitions; reports each transmission's outcome
/// to its initiator via callback at the end of the airtime.
class Medium {
 public:
  /// Outcome callback: inline-stored (util::InplaceFunction), so starting a
  /// transmission never allocates. Move-only; fired exactly once.
  using TxDone = util::InplaceFunction<void(TxOutcome)>;

  /// Sentinel node id selecting the global any-transmission view (senses
  /// every link, whatever the topology). Same value as sim::kNoLink.
  static constexpr LinkId kAllNodes = static_cast<LinkId>(-1);

  /// `success_prob[n]` is the paper's p_n for link n (i.i.d. Bernoulli loss).
  /// Without an explicit topology the graph is complete (the paper's model).
  /// `arena`, when given, backs the cold per-link state (counters, views,
  /// collision ledger) — the sharded Network shares one arena across all
  /// cell media; when null the Medium brings its own (borrowed, not owned,
  /// must outlive the Medium).
  Medium(sim::Simulator& simulator, ProbabilityVector success_prob, std::uint64_t seed,
         util::Arena* arena = nullptr);
  Medium(sim::Simulator& simulator, ProbabilityVector success_prob, InterferenceGraph topology,
         std::uint64_t seed, util::Arena* arena = nullptr);

  /// Custom loss process (e.g. GilbertElliottChannel). The model also
  /// provides the long-run p_n reported by success_prob().
  Medium(sim::Simulator& simulator, std::unique_ptr<ChannelModel> channel, std::uint64_t seed,
         util::Arena* arena = nullptr);
  Medium(sim::Simulator& simulator, std::unique_ptr<ChannelModel> channel,
         InterferenceGraph topology, std::uint64_t seed, util::Arena* arena = nullptr);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Begins a transmission on `link` lasting `airtime`. `done` fires exactly
  /// once, at now()+airtime, with the outcome. Overlap with any concurrent
  /// transmission on a conflicting link marks every participant collided.
  void start_transmission(LinkId link, Duration airtime, PacketKind kind, TxDone done);

  // ---- burst fast path ------------------------------------------------------
  // A link that wins the channel of an interference-closed medium transmits
  // its whole back-to-back chain with exclusive use of the medium: every
  // other device senses busy and freezes, and nothing outside can touch the
  // chain, so no event can interleave until it ends. The burst API exploits
  // that: the caller simulates the chain synchronously (one burst_tx per
  // packet, outcomes returned immediately in the same loss-stream order the
  // per-event path would draw them) and the medium schedules a single
  // idle-transition event at the end, instead of one completion event per
  // packet. Semantically identical to chained
  // start_transmission calls — the equivalence tests assert it bit-for-bit.

  /// True when the burst path may be used right now: an interference-closed
  /// medium (see interference_closed()), idle, and not inside a listener
  /// callback.
  [[nodiscard]] bool burst_available() const {
    return interference_closed_ && active_count_ == 0 && !dispatching_listeners_;
  }

  /// Opens an exclusive burst at now(). Precondition: burst_available().
  void begin_burst(LinkId link);

  /// Transmits one packet of the open burst occupying [at, at+airtime);
  /// returns its outcome immediately. The first packet emits the busy
  /// transition to listeners (after its kTxStart trace record, exactly like
  /// the per-event path).
  TxOutcome burst_tx(LinkId link, TimePoint at, Duration airtime, PacketKind kind);

  /// Closes the burst: performs the idle transition with timestamp `end`
  /// (>= now()) synchronously — no event is needed, because the burst froze
  /// everything else and the queue holds no event before `end` (asserted).
  void end_burst(TimePoint end);

  /// Carrier-sense, global view: is any transmission in flight right now?
  [[nodiscard]] bool busy() const { return active_count_ > 0; }

  /// Carrier-sense as seen from `node`: is any link that `node` senses
  /// transmitting? `kAllNodes` selects the global view. Under complete
  /// sensing every per-node view coincides with the global one, so the
  /// Medium maintains only the global view and routes per-node queries to
  /// it (the fast path the batch DP kernel relies on).
  [[nodiscard]] bool sense_busy(LinkId node) const {
    return (node == kAllNodes || complete_sensing_) ? busy() : views_[node].active > 0;
  }

  /// Registers a carrier-sense observer of the global view (not owned; must
  /// outlive the run).
  void add_listener(MediumListener* listener) { add_listener(listener, kAllNodes); }

  /// Registers an observer of `node`'s sense view. Listeners are notified
  /// in registration order whenever their view transitions.
  void add_listener(MediumListener* listener, LinkId node);

  [[nodiscard]] const InterferenceGraph& topology() const { return graph_; }

  /// Sense-closed: every node senses every local link and nothing else —
  /// the topology has complete sensing and, in shard mode, no remote
  /// speaker drives any local view. Every per-node view then coincides with
  /// the global one, so the single-view sensing path and the shared-clock
  /// batch MAC paths are exact.
  [[nodiscard]] bool sense_closed() const { return complete_sensing_; }

  /// Interference-closed: sense-closed, and no local transmission interacts
  /// with anything outside this medium — in shard mode, no local link has a
  /// cut conflict edge or is heard by another cell. Only then can a
  /// transmission's outcome be settled when it starts, which is what the
  /// burst path needs (it bypasses the cut outbox, the cut resolver and the
  /// run limit). The DP protocol is collision-free exactly here.
  [[nodiscard]] bool interference_closed() const { return interference_closed_; }

  [[nodiscard]] const MediumCounters& counters() const { return counters_; }
  [[nodiscard]] const LinkCounters& link_counters(LinkId link) const {
    return link_counters_[link];
  }

  /// Cumulative time `node`'s sense view has been busy (closed busy periods;
  /// an in-flight busy period is not included until it ends). `kAllNodes`
  /// reports the global view.
  [[nodiscard]] Duration sense_busy_time(LinkId node) const {
    return (node == kAllNodes || complete_sensing_) ? global_view_.busy_time
                                                    : views_[node].busy_time;
  }

  /// Number of pairwise collision events between links a and b (each
  /// conflicting overlap of one transmission pair counts once, symmetric).
  /// Dense n x n storage only when every pair conflicts (the paper's small
  /// complete graphs); partial topologies use a CSR ledger over the conflict
  /// adjacency — non-conflicting pairs can never collide, so their count is
  /// identically zero and needs no cell.
  [[nodiscard]] std::uint64_t collision_pair_count(LinkId a, LinkId b) const {
    if (!pair_dense_.empty()) {
      return pair_dense_[static_cast<std::size_t>(a) * num_links() + b];
    }
    const std::uint64_t* cell = pair_cell(a, b);
    return cell != nullptr ? *cell : 0;
  }

  /// Appends every nonzero (b, collision_pair_count(a, b)) to `out`, b
  /// ascending: one ledger row, read without probing the pairs that can
  /// never collide.
  void collision_row(LinkId a, std::vector<PairCount>& out) const;

  /// Bytes of per-link cold state this Medium holds (counters, sense views,
  /// collision ledger, loss streams, listener table) — feeds the mem.phy
  /// gauge. Arena-backed spans are counted here, not double-counted by the
  /// arena owner.
  [[nodiscard]] std::size_t memory_bytes() const;

  // ---- shard mode -----------------------------------------------------------
  // A cell's Medium is a regular Medium over the induced subgraph, plus:
  // exported cut-link transmissions (drained by the coordinator at window
  // barriers), injected remote activity (phantom busy periods on the local
  // sense views of cross-cell speakers), and a resolution horizon that
  // converts the coordinator's conservative bound into a Simulator run
  // limit. None of this exists outside shard mode (a one-cell network, a
  // standalone Medium).
  //
  // The per-window entry points REQUIRE the sim::shard_barrier phantom
  // capability: they are only sound while this cell's engine is stopped —
  // in the coordinator's serial barrier phase, or in the lane that runs the
  // cell, between its windows. configure_shard/register_remote_sense run at
  // construction time, before any parallel phase exists, and are
  // deliberately unannotated.

  /// Enters shard mode. The topology may keep complete sensing only if the
  /// cell is sense-closed (register_remote_sense refuses such a medium);
  /// whether it is also interference-closed follows from the cut flags and
  /// is settled here, once. Loss streams are re-keyed by global id either
  /// way, so results stay partition-independent.
  void configure_shard(ShardMediumConfig config);

  /// Declares that local `nodes` sense the remote global link `speaker`;
  /// inject_remote_activity(speaker, ...) will drive their views.
  /// Precondition: the medium is not sense-closed.
  void register_remote_sense(LinkId speaker, std::vector<LinkId> nodes);

  /// Arms the window's resolution bound: completions of cut-conflict
  /// transmissions ending after `bound` may not execute yet, so the engine
  /// run limit is set to the earliest such end (or cleared). Called by the
  /// coordinator at every window barrier.
  void set_resolution_horizon(TimePoint bound) RTMAC_REQUIRES(sim::shard_barrier);

  /// Appends and clears the exported cut transmissions (start-time order).
  void drain_cut_outbox(std::vector<CutTxExport>& into)
      RTMAC_REQUIRES(sim::shard_barrier);

  /// Schedules a phantom busy period [start, end) on the views of the local
  /// nodes registered for `speaker`. Stale parts before now() are clipped;
  /// a fully stale record is dropped. No-op for unregistered speakers.
  void inject_remote_activity(LinkId speaker, TimePoint start, TimePoint end)
      RTMAC_REQUIRES(sim::shard_barrier);

  /// Attaches a protocol tracer (not owned; null detaches). The medium is
  /// the natural distribution point: MAC components that already hold a
  /// Medium& read the tracer from here, so attaching once traces the whole
  /// stack.
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] sim::Tracer* tracer() const { return tracer_; }

  /// Attaches a metrics registry (not owned; null detaches). Like the
  /// tracer, the medium is the distribution point: MAC components that hold
  /// a Medium& read the registry from here, so attaching once instruments
  /// the whole stack. The medium itself contributes a busy-period duration
  /// histogram (channel-occupancy burst structure, which the aggregate
  /// MediumCounters cannot reconstruct); everything else it accounts is
  /// exported from MediumCounters by obs::collect_network_metrics.
  void set_metrics(obs::MetricsRegistry* registry);
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }
  /// Interval anchor for the delivery-latency series: the Network stamps
  /// every interval start here so delivered data packets can be measured
  /// against their interval's release time (the medium itself has no
  /// notion of the interval structure). One store per interval.
  void note_interval_start(TimePoint t) { interval_start_ = t; }
  /// Cached at construction: the channel's answer never changes, and this is
  /// queried from per-transmission hot paths (a virtual call would show up).
  [[nodiscard]] std::size_t num_links() const { return num_links_; }
  /// Long-run reliability p_n (what policies are configured with).
  [[nodiscard]] double success_prob(LinkId link) const {
    return channel_->mean_success(link);
  }

 private:
  struct ActiveTx {
    LinkId link;
    PacketKind kind;
    TimePoint start;
    Duration airtime;
    bool collided;
    TxDone done;
    std::uint64_t id;
  };

  /// One sense view's state. A completion callback may chain the next
  /// packet of a burst with zero idle gap; in that case `notified_busy`
  /// stays set, no idle/busy pair is emitted, and listeners correctly
  /// perceive one continuous busy period.
  struct SenseView {
    std::size_t active = 0;      ///< sensed transmissions in flight
    bool notified_busy = false;  ///< inside a (possibly chained) busy period
    TimePoint busy_since;        ///< start of the period (valid while notified_busy)
    Duration busy_time;          ///< total closed busy-period time
  };

  struct ListenerEntry {
    MediumListener* listener;
    LinkId node;  ///< kAllNodes = global view
  };

  void finish_transmission(std::uint64_t tx_id);
  [[nodiscard]] SenseView& view_of(LinkId node) {
    return node == kAllNodes ? global_view_ : views_[node];
  }
  /// The loss stream for `link`. Complete graphs draw from one shared
  /// stream in completion order (the paper's model, frozen by the golden
  /// CSVs); partial topologies use per-link streams keyed by the link's
  /// global id, so the draw sequence is independent of both event
  /// interleaving across cells and of the partition itself.
  [[nodiscard]] Rng& loss_rng_for(LinkId link) {
    return loss_rngs_.empty() ? loss_rng_ : loss_rngs_[link];
  }
  /// One clean-attempt loss draw for `link`. For the common StaticChannel
  /// the virtual dispatch is bypassed: the draw inlines to the identical
  /// rng.bernoulli(p) call the model would make, consuming the same stream
  /// state — same bits, less call overhead on the per-completion hot path.
  [[nodiscard]] bool attempt_succeeds(LinkId link) {
    return static_probs_ != nullptr ? loss_rng_for(link).bernoulli(static_probs_[link])
                                    : channel_->attempt_succeeds(link, loss_rng_for(link));
  }
  /// Allocates the pair ledger (dense or CSR per the conflict relation) and
  /// the per-link SoA blocks from the arena.
  void init_link_state();
  /// CSR cell for the (a, b) pair; null when a and b never conflict.
  [[nodiscard]] const std::uint64_t* pair_cell(LinkId a, LinkId b) const {
    const std::uint32_t lo = pair_row_[a];
    const std::uint32_t hi = pair_row_[a + 1];
    const LinkId* first = pair_col_.data() + lo;
    const LinkId* last = pair_col_.data() + hi;
    const LinkId* it = std::lower_bound(first, last, b);
    if (it == last || *it != b) return nullptr;
    return pair_count_.data() + (it - pair_col_.data());
  }
  [[nodiscard]] std::uint64_t* pair_cell(LinkId a, LinkId b) {
    return const_cast<std::uint64_t*>(std::as_const(*this).pair_cell(a, b));
  }
  /// Counts one pairwise collision event between a and b (symmetric; the
  /// self pair a == b counts once).
  void count_collision_pair(LinkId a, LinkId b) {
    if (!pair_dense_.empty()) {
      ++pair_dense_[static_cast<std::size_t>(a) * num_links_ + b];
      if (a != b) ++pair_dense_[static_cast<std::size_t>(b) * num_links_ + a];
      return;
    }
    std::uint64_t* ab = pair_cell(a, b);
    RTMAC_ASSERT(ab != nullptr, "collision between non-conflicting links");
    ++*ab;
    if (a != b) ++*pair_cell(b, a);
  }
  /// Applies a phantom busy/idle edge to the given local views (remote
  /// cut-edge activity; the global view and active_count_ stay untouched).
  void remote_mark(const std::vector<LinkId>& nodes, bool to_busy);
  /// Marks views of `link`'s sensing nodes (plus the global view) that
  /// transition in the given direction, updating their busy accounting.
  void mark_transitions(LinkId link, bool to_busy, TimePoint now);
  /// Notifies listeners (in registration order) whose view is marked, then
  /// clears the marks. Aborts re-entrant start_transmission while running.
  void dispatch_marked(bool to_busy, TimePoint now);
  /// Complete-sensing fast path: every view coincides with the global one,
  /// so a global-view edge notifies every listener unconditionally.
  void notify_all(bool to_busy, TimePoint now);

  sim::Simulator& sim_;
  std::unique_ptr<ChannelModel> channel_;
  InterferenceGraph graph_;
  /// Cached graph_.complete_sensing(), i.e. sense_closed(): selects the
  /// single-view fast path (per-node views are never touched; all listeners
  /// share the global view's transitions, which is exactly what complete
  /// sensing with no remote speaker implies).
  bool complete_sensing_ = false;
  /// interference_closed(): complete_sensing_ outside shard mode; in shard
  /// mode additionally no cut-conflict or exported link (configure_shard).
  bool interference_closed_ = false;
  std::size_t num_links_ = 0;  ///< cached channel_->num_links()
  std::uint64_t seed_ = 0;     ///< root seed (loss streams re-key in shard mode)
  /// Non-null iff the channel is a StaticChannel: borrowed view of its p_n
  /// vector, enabling the devirtualized loss draw in attempt_succeeds().
  const double* static_probs_ = nullptr;
  Rng loss_rng_;               ///< shared stream (complete graphs only)
  std::vector<Rng> loss_rngs_;  ///< per-link streams (partial topologies)
  std::vector<ActiveTx> active_;  // small: rarely more than a handful in flight
  std::size_t active_count_ = 0;
  /// Cold per-link SoA blocks live in `arena_` (caller-shared, or the
  /// fallback `own_arena_` when constructed standalone), sized once at
  /// construction.
  util::Arena* arena_ = nullptr;
  std::unique_ptr<util::Arena> own_arena_;
  std::span<SenseView> views_;  ///< one per node (= per link)
  SenseView global_view_;         ///< the kAllNodes view; feeds busy-period hist
  std::span<std::uint8_t> marks_;  ///< per-view transition scratch; [n_] = global
  bool any_marked_ = false;
  bool dispatching_listeners_ = false;  ///< re-entrancy guard (always enforced)
  bool burst_active_ = false;           ///< inside a begin_burst/end_burst pair
  std::uint64_t next_tx_id_ = 1;
  std::vector<ListenerEntry> listeners_;
  MediumCounters counters_;
  std::span<LinkCounters> link_counters_;  ///< arena-backed, one per link
  // Pairwise collision ledger: exactly one of the two forms is populated.
  std::span<std::uint64_t> pair_dense_;  ///< n x n (complete conflicts only)
  std::span<std::uint32_t> pair_row_;    ///< CSR row offsets, size n + 1
  std::span<LinkId> pair_col_;           ///< CSR columns: {a} + conflicts(a), sorted
  std::span<std::uint64_t> pair_count_;  ///< CSR values, parallel to pair_col_
  sim::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Cached instrument handles, null when detached. Quantile sketches, not
  // fixed-bucket histograms: busy periods and delivery latencies span four
  // orders of magnitude and the sketches stay memory-bounded on any horizon.
  obs::QuantileSketch* busy_period_sketch_ = nullptr;
  obs::QuantileSketch* delivery_latency_sketch_ = nullptr;
  TimePoint interval_start_;  ///< anchor for delivery latency (note_interval_start)

  // Shard mode (empty/default outside configure_shard).
  bool shard_mode_ = false;
  ShardMediumConfig shard_;
  TimePoint resolution_horizon_;
  std::vector<CutTxExport> outbox_;
  /// speaker global id -> local nodes whose views it drives.
  std::unordered_map<LinkId, std::vector<LinkId>> remote_sense_;
};

}  // namespace rtmac::phy
