#include "phy/medium.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/check.hpp"

namespace rtmac::phy {

Medium::Medium(sim::Simulator& simulator, ProbabilityVector success_prob, std::uint64_t seed,
               util::Arena* arena)
    : Medium{simulator, std::make_unique<StaticChannel>(std::move(success_prob)), seed, arena} {}

Medium::Medium(sim::Simulator& simulator, ProbabilityVector success_prob,
               InterferenceGraph topology, std::uint64_t seed, util::Arena* arena)
    : Medium{simulator, std::make_unique<StaticChannel>(std::move(success_prob)),
             std::move(topology), seed, arena} {}

namespace {

/// Stream id of link `global`'s private loss stream ("LOSS" + id). Partial
/// topologies draw per-link so the sequence is independent of how
/// transmissions on other links interleave — the property that makes
/// multi-cell and one-cell runs bit-identical.
std::uint64_t loss_stream_id(LinkId global) { return mix64(0x4c4f5353ULL, global); }

}  // namespace

Medium::Medium(sim::Simulator& simulator, std::unique_ptr<ChannelModel> channel,
               std::uint64_t seed, util::Arena* arena)
    : sim_{simulator},
      channel_{std::move(channel)},
      graph_{InterferenceGraph::complete(channel_ != nullptr ? channel_->num_links() : 1)},
      seed_{seed},
      loss_rng_{seed, /*stream_id=*/0x4d454449554dULL /* "MEDIUM" */} {
  RTMAC_REQUIRE(channel_ != nullptr && channel_->num_links() > 0);
  complete_sensing_ = graph_.complete_sensing();
  interference_closed_ = complete_sensing_;
  num_links_ = channel_->num_links();
  arena_ = arena;
  init_link_state();
}

Medium::Medium(sim::Simulator& simulator, std::unique_ptr<ChannelModel> channel,
               InterferenceGraph topology, std::uint64_t seed, util::Arena* arena)
    : sim_{simulator},
      channel_{std::move(channel)},
      graph_{std::move(topology)},
      seed_{seed},
      loss_rng_{seed, /*stream_id=*/0x4d454449554dULL /* "MEDIUM" */} {
  RTMAC_REQUIRE(channel_ != nullptr && channel_->num_links() > 0);
  const std::size_t n = channel_->num_links();
  RTMAC_ASSERT(graph_.num_links() == n, "interference graph size must match the channel");
  complete_sensing_ = graph_.complete_sensing();
  interference_closed_ = complete_sensing_;
  num_links_ = n;
  arena_ = arena;
  init_link_state();
  if (!graph_.is_complete()) {
    loss_rngs_.reserve(n);
    for (LinkId link = 0; link < n; ++link) {
      loss_rngs_.emplace_back(seed_, loss_stream_id(link));
    }
  }
}

void Medium::init_link_state() {
  if (arena_ == nullptr) {
    // Legacy/test construction: no shared arena, bring a private one.
    own_arena_ = std::make_unique<util::Arena>();
    arena_ = own_arena_.get();
  }
  static_probs_ = [this]() -> const double* {
    auto* static_channel = dynamic_cast<StaticChannel*>(channel_.get());
    return static_channel != nullptr ? static_channel->probs().data() : nullptr;
  }();
  const std::size_t n = num_links_;
  link_counters_ = arena_->make_span<LinkCounters>(n);
  views_ = arena_->make_span<SenseView>(n);
  marks_ = arena_->make_span<std::uint8_t>(n + 1);
  if (graph_.complete_conflicts()) {
    // Every pair can collide; the dense matrix is exactly the CSR payload
    // without the offsets. Complete graphs are the paper's small cells, so
    // n^2 here is cheap.
    pair_dense_ = arena_->make_span<std::uint64_t>(n * n);
    return;
  }
  // CSR over the conflict adjacency ({a} + conflicts(a) per row, ascending —
  // the diagonal is forced true, so self collisions always have a cell).
  std::size_t entries = 0;
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b = 0; b < n; ++b) entries += graph_.conflicts(a, b) ? 1 : 0;
  }
  pair_row_ = arena_->make_span<std::uint32_t>(n + 1);
  pair_col_ = arena_->make_span<LinkId>(entries);
  pair_count_ = arena_->make_span<std::uint64_t>(entries);
  std::uint32_t at = 0;
  for (LinkId a = 0; a < n; ++a) {
    pair_row_[a] = at;
    for (LinkId b = 0; b < n; ++b) {
      if (graph_.conflicts(a, b)) pair_col_[at++] = b;
    }
  }
  pair_row_[n] = at;
}

std::size_t Medium::memory_bytes() const {
  return link_counters_.size_bytes() + views_.size_bytes() + marks_.size_bytes() +
         pair_dense_.size_bytes() + pair_row_.size_bytes() + pair_col_.size_bytes() +
         pair_count_.size_bytes() + loss_rngs_.capacity() * sizeof(Rng) +
         active_.capacity() * sizeof(ActiveTx) + listeners_.capacity() * sizeof(ListenerEntry) +
         outbox_.capacity() * sizeof(CutTxExport) +
         shard_.global_ids.capacity() * sizeof(LinkId) + shard_.conflict_cut.capacity();
}

void Medium::collision_row(LinkId a, std::vector<PairCount>& out) const {
  if (!pair_dense_.empty()) {
    const std::uint64_t* row = pair_dense_.data() + static_cast<std::size_t>(a) * num_links_;
    for (LinkId b = 0; b < num_links_; ++b) {
      if (row[b] > 0) out.push_back(PairCount{b, row[b]});
    }
    return;
  }
  for (std::uint32_t i = pair_row_[a]; i < pair_row_[a + 1]; ++i) {
    if (pair_count_[i] > 0) out.push_back(PairCount{pair_col_[i], pair_count_[i]});
  }
}

void Medium::configure_shard(ShardMediumConfig config) {
  RTMAC_REQUIRE(config.global_ids.size() == num_links_, "global id map size mismatch");
  RTMAC_REQUIRE(config.conflict_cut.size() == num_links_, "cut flag size mismatch");
  shard_mode_ = true;
  shard_ = std::move(config);
  // A transmission reaches outside the cell only through a cut conflict: its
  // outcome waits for the resolver.
  const bool no_cut = std::none_of(shard_.conflict_cut.begin(), shard_.conflict_cut.end(),
                                   [](std::uint8_t c) { return c != 0; });
  interference_closed_ = complete_sensing_ && no_cut;
  // Re-key the loss streams by global id: the draws a link sees must not
  // depend on which cell it landed in.
  loss_rngs_.clear();
  for (LinkId link = 0; link < num_links_; ++link) {
    loss_rngs_.emplace_back(seed_, loss_stream_id(shard_.global_ids[link]));
  }
  resolution_horizon_ = sim::Simulator::no_run_limit();
}

void Medium::set_resolution_horizon(TimePoint bound) {
  RTMAC_ASSERT(shard_mode_, "set_resolution_horizon outside shard mode");
  resolution_horizon_ = bound;
  // The run limit is the earliest active cut-conflict completion past the
  // bound; completions blocked last window stay blocked until their
  // neighbors' clocks catch up. Starts are never blocked, so new cut
  // transmissions tighten the limit on the fly (see start_transmission).
  TimePoint limit = sim::Simulator::no_run_limit();
  for (const ActiveTx& tx : active_) {
    if (shard_.conflict_cut[tx.link] == 0) continue;
    const TimePoint end = tx.start + tx.airtime;
    if (end > bound && end < limit) limit = end;
  }
  sim_.set_run_limit(limit);
}

void Medium::drain_cut_outbox(std::vector<CutTxExport>& into) {
  into.insert(into.end(), outbox_.begin(), outbox_.end());
  outbox_.clear();
}

void Medium::add_listener(MediumListener* listener, LinkId node) {
  RTMAC_REQUIRE(listener != nullptr);
  RTMAC_REQUIRE(node == kAllNodes || node < num_links());
  listeners_.push_back(ListenerEntry{listener, node});
}

void Medium::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    busy_period_sketch_ = nullptr;
    delivery_latency_sketch_ = nullptr;
    return;
  }
  // Busy periods span microseconds (one claim packet) to a whole interval
  // (tens of ms of back-to-back traffic); delivery latency spans the same
  // range, measured from the interval's release instant. Both are quantile
  // sketches: no bucket bounds to pick, bounded memory on any horizon.
  busy_period_sketch_ = &registry->sketch("phy.busy_period_us");
  delivery_latency_sketch_ = &registry->sketch("phy.delivery_latency_us");
}

void Medium::mark_transitions(LinkId link, bool to_busy, TimePoint now) {
  const std::size_t n = num_links();
  const std::vector<LinkId>& sensing = graph_.sensed_by(link);
  // The global view behaves like a node that senses every link.
  for (std::size_t i = 0; i <= sensing.size(); ++i) {
    const bool is_global = (i == sensing.size());
    SenseView& view = is_global ? global_view_ : views_[sensing[i]];
    const std::size_t mark_idx = is_global ? n : sensing[i];
    if (to_busy) {
      ++view.active;
      if (!view.notified_busy) {
        view.notified_busy = true;
        view.busy_since = now;
        marks_[mark_idx] = 1;
        any_marked_ = true;
      }
    } else if (view.active == 0 && view.notified_busy) {
      view.notified_busy = false;
      view.busy_time += now - view.busy_since;
      if (is_global && busy_period_sketch_ != nullptr) {
        busy_period_sketch_->update((now - view.busy_since).us_f());
      }
      marks_[mark_idx] = 1;
      any_marked_ = true;
    }
  }
}

void Medium::notify_all(bool to_busy, TimePoint now) {
  dispatching_listeners_ = true;
  for (const ListenerEntry& entry : listeners_) {
    if (to_busy) {
      entry.listener->on_medium_busy(now);
    } else {
      entry.listener->on_medium_idle(now);
    }
  }
  dispatching_listeners_ = false;
}

void Medium::dispatch_marked(bool to_busy, TimePoint now) {
  if (!any_marked_) return;
  const std::size_t n = num_links();
  dispatching_listeners_ = true;
  for (const ListenerEntry& entry : listeners_) {
    const std::size_t mark_idx = entry.node == kAllNodes ? n : entry.node;
    if (marks_[mark_idx] == 0) continue;
    if (to_busy) {
      entry.listener->on_medium_busy(now);
    } else {
      entry.listener->on_medium_idle(now);
    }
  }
  dispatching_listeners_ = false;
  std::fill(marks_.begin(), marks_.end(), std::uint8_t{0});
  any_marked_ = false;
}

void Medium::start_transmission(LinkId link, Duration airtime, PacketKind kind, TxDone done) {
  RTMAC_REQUIRE(link < channel_->num_links());
  RTMAC_REQUIRE(airtime > Duration{}, "zero-airtime transmission");
  RTMAC_ASSERT(!burst_active_, "start_transmission while a burst holds the medium");
  if (dispatching_listeners_) {
    // Re-entrancy rule (see MediumListener): transmitting synchronously from
    // a busy/idle callback would let later listeners observe transitions out
    // of order. Always enforced — the cost is one branch per transmission.
    std::fprintf(stderr,
                 "rtmac: Medium::start_transmission called synchronously from a "
                 "MediumListener callback (link %u); schedule through the Simulator "
                 "instead\n",
                 link);
    std::abort();
  }

  const TimePoint now = sim_.now();

  // Transmissions occupy half-open intervals [start, start+airtime): an
  // active record whose end instant equals `now` is merely awaiting its
  // same-timestamp completion event and does NOT overlap the newcomer.
  // Only overlaps on CONFLICTING links collide.
  bool collided = false;
  for (auto& tx : active_) {
    if (tx.start + tx.airtime > now && graph_.conflicts(link, tx.link)) {
      tx.collided = true;
      collided = true;
      count_collision_pair(link, tx.link);
    }
  }

  const std::uint64_t tx_id = next_tx_id_++;
  active_.push_back(ActiveTx{link, kind, now, airtime, collided, std::move(done), tx_id});
  ++active_count_;

  if (kind == PacketKind::kData) {
    ++counters_.data_tx;
    ++link_counters_[link].data_tx;
  } else {
    ++counters_.empty_tx;
    ++link_counters_[link].empty_tx;
  }

  sim_.schedule_in(airtime, [this, tx_id] { finish_transmission(tx_id); });

  if (shard_mode_) {
    const TimePoint end = now + airtime;
    if (shard_.conflict_cut[link] != 0) {
      outbox_.push_back(CutTxExport{shard_.global_ids[link], now, end});
      // A new cut-conflict transmission ending beyond the resolution bound
      // must not complete this window; tighten the run limit if it is now
      // the earliest blocked completion.
      if (end > resolution_horizon_ && end < sim_.run_limit()) sim_.set_run_limit(end);
    }
  }

  if (tracer_ != nullptr) {
    tracer_->record(now, sim::TraceKind::kTxStart, link, airtime.ns(),
                    kind == PacketKind::kEmpty ? 1 : 0);
  }

  if (complete_sensing_) {
    // Fast path: one shared view, maintained inline; listeners are visited
    // only on an actual busy edge (chained back-to-back packets keep the
    // view busy and skip the whole notification machinery).
    SenseView& view = global_view_;
    ++view.active;
    if (!view.notified_busy) {
      view.notified_busy = true;
      view.busy_since = now;
      notify_all(/*to_busy=*/true, now);
    }
  } else {
    mark_transitions(link, /*to_busy=*/true, now);
    dispatch_marked(/*to_busy=*/true, now);
  }
}

void Medium::finish_transmission(std::uint64_t tx_id) {
  const auto it = std::find_if(active_.begin(), active_.end(),
                               [tx_id](const ActiveTx& tx) { return tx.id == tx_id; });
  RTMAC_ASSERT(it != active_.end(), "unknown transmission id");

  // Move the record out before invoking user code: the completion callback
  // may immediately start another transmission (back-to-back bursts).
  ActiveTx tx = std::move(*it);
  active_.erase(it);
  --active_count_;
  --global_view_.active;
  if (!complete_sensing_) {
    for (LinkId node : graph_.sensed_by(tx.link)) --views_[node].active;
  }

  counters_.busy_time += tx.airtime;
  link_counters_[tx.link].airtime += tx.airtime;

  // Cross-shard overlaps: by the time this completion executes, the
  // coordinator guarantees every conflicting neighbor cell has advanced
  // past it, so the resolver's answer is exact. Consulted even when a
  // local overlap already collided the packet — the cross-shard pair
  // ledger must count either way, exactly like the local pair ledger.
  if (shard_mode_ && shard_.conflict_cut[tx.link] != 0 && shard_.resolver != nullptr) {
    const bool remote_collision = shard_.resolver->resolve_cut_tx(
        shard_.global_ids[tx.link], tx.start, tx.start + tx.airtime);
    tx.collided = tx.collided || remote_collision;
  }

  TxOutcome outcome;
  if (tx.collided) {
    outcome = TxOutcome::kCollision;
    ++counters_.collisions;
    ++link_counters_[tx.link].collisions;
    counters_.collided_time += tx.airtime;
  } else if (tx.kind == PacketKind::kData && attempt_succeeds(tx.link)) {
    outcome = TxOutcome::kDelivered;
    ++counters_.delivered;
    ++link_counters_[tx.link].delivered;
    if (delivery_latency_sketch_ != nullptr) {
      delivery_latency_sketch_->update((sim_.now() - interval_start_).us_f());
    }
  } else if (tx.kind == PacketKind::kEmpty) {
    // Empty packets carry no payload; a clean empty transmission counts as
    // delivered for protocol purposes (the claim was heard as channel
    // activity), and is never subject to the payload loss process.
    outcome = TxOutcome::kDelivered;
  } else {
    outcome = TxOutcome::kChannelLoss;
    ++counters_.channel_losses;
  }

  const TimePoint now = sim_.now();
  if (tracer_ != nullptr) {
    tracer_->record(now, sim::TraceKind::kTxEnd, tx.link, static_cast<std::int64_t>(outcome),
                    tx.kind == PacketKind::kEmpty ? 1 : 0);
  }

  // Notify the transmitter first (it may chain the next packet of a burst,
  // keeping its sense views busy with no idle gap), then carrier-sense
  // listeners of every view that actually went idle.
  if (tx.done) tx.done(outcome);

  if (complete_sensing_) {
    SenseView& view = global_view_;
    if (view.active == 0 && view.notified_busy) {
      view.notified_busy = false;
      const Duration period = now - view.busy_since;
      view.busy_time += period;
      if (busy_period_sketch_ != nullptr) busy_period_sketch_->update(period.us_f());
      notify_all(/*to_busy=*/false, now);
    }
  } else {
    mark_transitions(tx.link, /*to_busy=*/false, now);
    dispatch_marked(/*to_busy=*/false, now);
  }
}

void Medium::begin_burst(LinkId link) {
  RTMAC_REQUIRE(link < num_links_);
  RTMAC_ASSERT(burst_available(), "begin_burst without burst_available()");
  burst_active_ = true;
  ++active_count_;
  ++global_view_.active;
}

TxOutcome Medium::burst_tx(LinkId link, TimePoint at, Duration airtime, PacketKind kind) {
  RTMAC_ASSERT(burst_active_, "burst_tx outside a burst");
  RTMAC_REQUIRE(airtime > Duration{}, "zero-airtime transmission");

  if (kind == PacketKind::kData) {
    ++counters_.data_tx;
    ++link_counters_[link].data_tx;
  } else {
    ++counters_.empty_tx;
    ++link_counters_[link].empty_tx;
  }
  if (tracer_ != nullptr) {
    tracer_->record(at, sim::TraceKind::kTxStart, link, airtime.ns(),
                    kind == PacketKind::kEmpty ? 1 : 0);
  }

  // First packet of the burst: emit the busy edge, exactly where the
  // per-event path does (after the kTxStart record, before the outcome).
  SenseView& view = global_view_;
  if (!view.notified_busy) {
    view.notified_busy = true;
    view.busy_since = at;
    notify_all(/*to_busy=*/true, at);
  }

  counters_.busy_time += airtime;
  link_counters_[link].airtime += airtime;

  // No collision branch: the burst holds the medium exclusively, so the
  // outcome depends only on the channel — drawn from the same loss stream,
  // in the same order, as the per-event path would at the completion event.
  TxOutcome outcome;
  if (kind == PacketKind::kData && attempt_succeeds(link)) {
    outcome = TxOutcome::kDelivered;
    ++counters_.delivered;
    ++link_counters_[link].delivered;
    // Virtual burst timestamp: the packet completes at `at + airtime`, the
    // same instant the per-event path would observe at its completion event.
    if (delivery_latency_sketch_ != nullptr) {
      delivery_latency_sketch_->update((at + airtime - interval_start_).us_f());
    }
  } else if (kind == PacketKind::kEmpty) {
    outcome = TxOutcome::kDelivered;
  } else {
    outcome = TxOutcome::kChannelLoss;
    ++counters_.channel_losses;
  }

  if (tracer_ != nullptr) {
    tracer_->record(at + airtime, sim::TraceKind::kTxEnd, link,
                    static_cast<std::int64_t>(outcome), kind == PacketKind::kEmpty ? 1 : 0);
  }
  return outcome;
}

void Medium::end_burst(TimePoint end) {
  RTMAC_ASSERT(burst_active_, "end_burst outside a burst");
  RTMAC_ASSERT(end >= sim_.now(), "burst ends in the past");
  // The idle transition runs synchronously with the burst-end timestamp
  // rather than through an event at `end`: the burst froze every other
  // device at its busy edge (the shared backoff clock cancelled its expiry),
  // so the event queue holds nothing that could observe the medium before
  // `end` — asserted below. Listeners receive the future timestamp and
  // schedule their resumed expiries at absolute times >= `end`, which is
  // exactly what they would have computed inside an event at `end`.
  RTMAC_ASSERT(sim_.no_event_before(end), "event pending inside the burst window");
  burst_active_ = false;
  --active_count_;
  SenseView& view = global_view_;
  --view.active;
  if (view.active == 0 && view.notified_busy) {
    view.notified_busy = false;
    const Duration period = end - view.busy_since;
    view.busy_time += period;
    if (busy_period_sketch_ != nullptr) busy_period_sketch_->update(period.us_f());
    notify_all(/*to_busy=*/false, end);
  }
}

}  // namespace rtmac::phy
