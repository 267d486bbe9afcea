#include "mac/dp_link_mac.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace rtmac::mac {

// ---- DpLinkAir --------------------------------------------------------------

DpLinkAir::DpLinkAir(sim::Simulator& simulator, phy::Medium& medium, const DpLinkParams& params,
                     LinkId id, ReliabilityEstimator* estimator, bool allow_burst)
    : sim_{simulator},
      medium_{medium},
      params_{params},
      id_{id},
      estimator_{estimator},
      allow_burst_{allow_burst} {}

void DpLinkAir::begin(int arrivals, TimePoint interval_end, bool is_candidate) {
  RTMAC_REQUIRE(arrivals >= 0);
  interval_end_ = interval_end;
  buffer_ = arrivals;
  is_candidate_ = is_candidate;
  delivered_ = 0;
  tx_started_ = 0;
  first_tx_started_ = false;
  // Step 2: a candidate with no traffic still claims its slot on the air.
  empty_claim_pending_ = is_candidate && buffer_ == 0;
}

void DpLinkAir::on_slot_won() {
  if (allow_burst_ && medium_.burst_available()) {
    run_burst();
    return;
  }
  try_transmit();
}

void DpLinkAir::run_burst() {
  // Mirrors try_transmit()/on_tx_done() packet by packet, but simulates the
  // whole back-to-back chain synchronously through the Medium burst API: one
  // idle-transition event at the end instead of one completion event per
  // packet. Legal because under complete sensing the chain holds the medium
  // exclusively — every other device is frozen, so no event can interleave
  // and the loss-stream draw order is exactly the per-event path's.
  TimePoint t = sim_.now();
  bool began = false;
  while (true) {
    Duration airtime;
    phy::PacketKind kind;
    if (buffer_ > 0) {
      if (t + params_.data_airtime <= interval_end_) {
        airtime = params_.data_airtime;
        kind = phy::PacketKind::kData;
      } else if (is_candidate_ && !first_tx_started_ &&
                 t + params_.empty_airtime <= interval_end_) {
        // Gap-blocked candidate claim (see try_transmit); first packet only.
        airtime = params_.empty_airtime;
        kind = phy::PacketKind::kEmpty;
      } else {
        break;
      }
    } else if (empty_claim_pending_ && t + params_.empty_airtime <= interval_end_) {
      empty_claim_pending_ = false;
      airtime = params_.empty_airtime;
      kind = phy::PacketKind::kEmpty;
    } else {
      break;
    }
    if (!began) {
      medium_.begin_burst(id_);
      began = true;
    }
    ++tx_started_;
    first_tx_started_ = true;
    const phy::TxOutcome outcome = medium_.burst_tx(id_, t, airtime, kind);
    t += airtime;
    if (kind == phy::PacketKind::kData) {
      if (estimator_ != nullptr) estimator_->record(id_, outcome == phy::TxOutcome::kDelivered);
      if (outcome == phy::TxOutcome::kDelivered) {
        ++delivered_;
        --buffer_;
      }
    }
  }
  if (began) medium_.end_burst(t);
}

void DpLinkAir::try_transmit() {
  const TimePoint now = sim_.now();

  auto send = [this](Duration airtime, phy::PacketKind kind) {
    ++tx_started_;
    first_tx_started_ = true;
    medium_.start_transmission(id_, airtime, kind,
                               [this, kind](phy::TxOutcome o) { on_tx_done(kind, o); });
  };

  if (buffer_ > 0) {
    // Remark 4 gap rule: transmit only if the packet fits in the interval.
    if (now + params_.data_airtime <= interval_end_) {
      send(params_.data_airtime, phy::PacketKind::kData);
      return;
    }
    // Swap-consistency rule: a CANDIDATE whose data packet no longer fits
    // must still claim its backoff slot on the air if a short empty packet
    // fits — otherwise its silence is indistinguishable from "moved away"
    // and the partner could commit a one-sided swap. (Candidates without
    // arrivals already claim via empty_claim_pending_ below; this extends
    // the same priority-claiming packet to the gap-blocked data case.)
    if (is_candidate_ && !first_tx_started_ &&
        now + params_.empty_airtime <= interval_end_) {
      send(params_.empty_airtime, phy::PacketKind::kEmpty);
    }
    return;
  }
  if (empty_claim_pending_ && now + params_.empty_airtime <= interval_end_) {
    empty_claim_pending_ = false;
    send(params_.empty_airtime, phy::PacketKind::kEmpty);
  }
}

void DpLinkAir::on_tx_done(phy::PacketKind kind, phy::TxOutcome outcome) {
  // DP backoff counts are unique within the interval, so on an
  // interference-closed medium (complete carrier sensing, everyone freezes
  // and resumes together, and nothing outside can interfere) no DP
  // transmission can ever collide; the assert documents that invariant.
  // Under partial sensing the countdowns desynchronize, and a sense-closed
  // shard cell with a cut conflict edge still meets the hidden terminal on
  // the other side — there collisions are a genuine protocol outcome.
  RTMAC_ASSERT(outcome != phy::TxOutcome::kCollision || !medium_.interference_closed(),
               "DP protocol must be collision-free on an interference-closed medium: link ",
               id_, " collided");
  if (kind == phy::PacketKind::kData && estimator_ != nullptr &&
      outcome != phy::TxOutcome::kCollision) {
    // Learning mode (Section II-A): the ACK outcome of every clean data
    // transmission updates this link's own reliability posterior.
    estimator_->record(id_, outcome == phy::TxOutcome::kDelivered);
  }
  if (kind == phy::PacketKind::kData && outcome == phy::TxOutcome::kDelivered) {
    ++delivered_;
    --buffer_;
  }
  // Channel losses leave the packet in the buffer: retransmit until the
  // deadline (back-to-back, the channel is already ours).
  try_transmit();
}

int DpLinkAir::finish() {
  // Step 7: flush everything that missed the deadline.
  buffer_ = 0;
  empty_claim_pending_ = false;
  return delivered_;
}

// ---- DpLinkMac (scalar reference path) --------------------------------------

DpLinkMac::DpLinkMac(sim::Simulator& simulator, phy::Medium& medium, const DpLinkParams& params,
                     LinkId id, ReliabilityEstimator* estimator, LinkId trace_link)
    : air_{simulator, medium, params, id, estimator},
      backoff_{simulator, medium, params.backoff_slot, id} {
  backoff_.set_trace_link(trace_link == kSameAsId ? id : trace_link);
}

void DpLinkMac::begin_interval(int arrivals, TimePoint interval_end, bool is_candidate,
                               int backoff_count) {
  air_.begin(arrivals, interval_end, is_candidate);
  backoff_.start(backoff_count, [this] { air_.on_slot_won(); });
}

// ---- DpScheme ---------------------------------------------------------------

namespace {

const PriorityProvider& checked_provider(const std::unique_ptr<PriorityProvider>& provider) {
  RTMAC_REQUIRE(provider != nullptr);
  return *provider;
}

std::vector<PriorityIndex> initial_priority_array(
    const SchemeContext& ctx, const std::optional<core::Permutation>& initial) {
  // Priorities live in the GLOBAL space: a shard cell slices the domain-wide
  // permutation by its links' global ids, so the sigma each link carries is
  // the one it would hold in the unsharded run. The default (identity)
  // permutation gives link g priority g + 1, with no O(N) table per cell.
  std::vector<PriorityIndex> out(ctx.num_links);
  if (initial.has_value()) {
    RTMAC_REQUIRE(initial->size() == ctx.priority_space());
    for (LinkId n = 0; n < ctx.num_links; ++n) out[n] = initial->priority_of(ctx.global_id(n));
  } else {
    for (LinkId n = 0; n < ctx.num_links; ++n) {
      out[n] = static_cast<PriorityIndex>(ctx.global_id(n) + 1);
    }
  }
  return out;
}

/// Hard bound on freezes per interval: the shared clock freezes at most once
/// per transmission, and no transmission is shorter than an empty packet.
std::size_t freeze_capacity_hint(Duration interval_length, const DpLinkParams& params) {
  const std::int64_t min_airtime = std::max<std::int64_t>(params.empty_airtime.ns(), 1);
  return static_cast<std::size_t>(interval_length.ns() / min_airtime) + 2;
}

}  // namespace

DpScheme::DpScheme(const SchemeContext& ctx, std::unique_ptr<PriorityProvider> provider,
                   DpLinkParams params, std::string name,
                   std::optional<core::Permutation> initial, ReliabilityEstimator* estimator)
    : sim_{ctx.simulator},
      medium_{ctx.medium},
      provider_{std::move(provider)},
      kernel_{ctx.num_links,           SharedSeed{mix64(ctx.seed, 0x5EEDC0DE)},
              checked_provider(provider_), params.reordering,
              params.max_swap_pairs,    initial_priority_array(ctx, initial),
              ctx.seed,                 ctx.priority_space(),
              ctx.link_ids},
      name_{std::move(name)},
      sensing_complete_{ctx.medium.sense_closed()},
      batch_{sensing_complete_ && !params.force_scalar_path} {
  if (batch_) {
    airs_.reserve(ctx.num_links);
    for (LinkId n = 0; n < ctx.num_links; ++n) {
      airs_.emplace_back(ctx.simulator, ctx.medium, params, n, estimator,
                         /*allow_burst=*/true);
    }
    armed_scratch_.assign(ctx.num_links, 0);
    batch_backoff_ = std::make_unique<DpBatchBackoff>(
        ctx.simulator, ctx.medium, params.backoff_slot, ctx.num_links,
        freeze_capacity_hint(ctx.interval_length, params),
        DpBatchBackoff::ExpiryHandler{[this](LinkId n) { on_slot_won(n); }});
  } else {
    links_.reserve(ctx.num_links);
    for (LinkId n = 0; n < ctx.num_links; ++n) {
      links_.push_back(std::make_unique<DpLinkMac>(ctx.simulator, ctx.medium, params, n,
                                                   estimator, ctx.global_id(n)));
    }
  }
}

std::size_t DpScheme::memory_bytes() const {
  const std::size_t kernel = kernel_.memory_bytes();
  if (!batch_) {
    return kernel + links_.capacity() * sizeof(links_[0]) + links_.size() * sizeof(DpLinkMac);
  }
  return kernel + airs_.capacity() * sizeof(DpLinkAir) + armed_scratch_.capacity() +
         batch_backoff_->memory_bytes();
}

void DpScheme::on_slot_won(LinkId n) { airs_[n].on_slot_won(); }

void DpScheme::begin_interval(IntervalIndex k, std::span<const int> arrivals,
                              TimePoint interval_end) {
  const std::size_t n_links = kernel_.num_links();
  RTMAC_REQUIRE(arrivals.size() == n_links);
  // Steps 1, 3, 4 for every link, as flat SoA passes.
  kernel_.plan_interval(k);
  if (!batch_) {
    for (LinkId n = 0; n < n_links; ++n) {
      links_[n]->begin_interval(arrivals[n], interval_end, kernel_.is_candidate(n),
                                kernel_.backoff_count(n));
    }
    return;
  }
  sim::Tracer* tracer = medium_.tracer();
  for (LinkId n = 0; n < n_links; ++n) {
    airs_[n].begin(arrivals[n], interval_end, kernel_.is_candidate(n));
    armed_scratch_[n] = airs_[n].armed() ? 1 : 0;
    if (tracer != nullptr) {
      // Per-engine emulation: each scalar engine traces its arming.
      tracer->record(sim_.now(), sim::TraceKind::kBackoffArmed, n, kernel_.backoff_count(n));
    }
  }
  // Unarmed links can never transmit, so their expiries are observable only
  // through the trace; schedule them only when someone is watching.
  batch_backoff_->begin_interval(sim_.now(), kernel_.backoff_counts(), armed_scratch_,
                                 /*include_unarmed=*/tracer != nullptr);
}

void DpScheme::end_interval(std::span<int> delivered) {
  const std::size_t n_links = kernel_.num_links();
  RTMAC_REQUIRE(delivered.size() == n_links);
  sim::Tracer* tracer = medium_.tracer();
  if (batch_) batch_backoff_->stop();
  for (LinkId n = 0; n < n_links; ++n) {
    bool frozen_at_one = false;
    bool claim_aired = false;
    if (batch_) {
      frozen_at_one = batch_backoff_->frozen_with_remaining(kernel_.backoff_count(n), 1);
      claim_aired = airs_[n].aired();
    } else {
      links_[n]->stop_backoff();
      frozen_at_one = links_[n]->frozen_at_one();
      claim_aired = links_[n]->claim_aired();
    }
    const PriorityIndex before = kernel_.priority(n);
    const int delta = kernel_.resolve_swap(n, frozen_at_one, claim_aired);
    if (delta != 0 && tracer != nullptr) {
      tracer->record(sim_.now(),
                     delta > 0 ? sim::TraceKind::kSwapDown : sim::TraceKind::kSwapUp, n,
                     before, static_cast<std::int64_t>(before) + delta);
    }
    delivered[n] = batch_ ? airs_[n].finish() : links_[n]->finish();
  }
  // Decentralized decisions must still compose into a permutation; this is
  // the protocol's core consistency invariant. It only holds when every
  // device can carrier-sense every other: hidden terminals may observe
  // asymmetric freeze records and commit one-sided swaps.
  if constexpr (kChecksEnabled) {
    if (sensing_complete_) kernel_.validate_permutation();
  }
}

core::Permutation DpScheme::priorities() const {
  return core::Permutation::from_priorities(priority_vector());
}

std::vector<PriorityIndex> DpScheme::priority_vector() const {
  const std::span<const PriorityIndex> sigma = kernel_.priority_span();
  return {sigma.begin(), sigma.end()};
}

}  // namespace rtmac::mac
