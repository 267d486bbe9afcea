#include "mac/fcsma_mac.hpp"

#include <cmath>

#include "util/check.hpp"

namespace rtmac::mac {

int fcsma_window_for_weight(double weight, const FcsmaParams& params) {
  RTMAC_REQUIRE(!params.window_sizes.empty());
  RTMAC_REQUIRE(params.section_width > 0.0);
  const auto section = static_cast<std::size_t>(
      std::max(0.0, std::floor(weight / params.section_width)));
  const std::size_t clamped = std::min(section, params.window_sizes.size() - 1);
  return params.window_sizes[clamped];
}

// ---- FcsmaLinkMac -----------------------------------------------------------

FcsmaLinkMac::FcsmaLinkMac(sim::Simulator& simulator, phy::Medium& medium,
                           const core::DebtTracker& debts, const ProbabilityVector& p,
                           const FcsmaParams& params, Duration data_airtime, Duration slot,
                           LinkId id, std::uint64_t seed, LinkId stream_link)
    : sim_{simulator},
      medium_{medium},
      debts_{debts},
      p_{p},
      params_{params},
      data_airtime_{data_airtime},
      id_{id},
      rng_{seed, /*stream_id=*/0xFC500000000ULL + (stream_link == kSameAsId ? id : stream_link)},
      backoff_{simulator, medium, slot, id} {}

void FcsmaLinkMac::begin_interval(IntervalIndex, int arrivals, TimePoint interval_end) {
  RTMAC_REQUIRE(arrivals >= 0);
  interval_end_ = interval_end;
  buffer_ = arrivals;
  delivered_ = 0;
  // The window reacts to debt once per interval (the discretized design:
  // the mapping is static within an interval and saturates for large debt).
  const double weight = params_.influence(debts_.debt_plus(id_)) * p_[id_];
  window_ = fcsma_window_for_weight(weight, params_);
  if (buffer_ > 0) contend();
}

void FcsmaLinkMac::contend() {
  const int draw = static_cast<int>(rng_.uniform_int(0, window_ - 1));
  backoff_.start(draw, [this] { on_backoff_expired(); });
}

void FcsmaLinkMac::on_backoff_expired() {
  if (sim_.now() + data_airtime_ > interval_end_) return;  // deadline gap rule
  medium_.start_transmission(id_, data_airtime_, phy::PacketKind::kData,
                             [this](phy::TxOutcome o) { on_tx_done(o); });
}

void FcsmaLinkMac::on_tx_done(phy::TxOutcome outcome) {
  if (outcome == phy::TxOutcome::kDelivered) {
    --buffer_;
    ++delivered_;
  }
  // Collision or channel loss: the packet stays queued. Either way the link
  // redraws a fresh backoff for its next attempt.
  if (buffer_ > 0) contend();
}

int FcsmaLinkMac::end_interval() {
  backoff_.stop();
  buffer_ = 0;
  return delivered_;
}

// ---- FcsmaScheme ------------------------------------------------------------

FcsmaScheme::FcsmaScheme(const SchemeContext& ctx, FcsmaParams params, std::string name)
    : params_{std::move(params)},
      sim_{ctx.simulator},
      medium_{ctx.medium},
      debts_{ctx.debts},
      p_{ctx.success_prob},
      data_airtime_{ctx.phy.data_airtime},
      name_{std::move(name)} {
  if (ctx.medium.sense_closed() && !params_.force_scalar_path) {
    // Batch path (sense-closed medium): one shared backoff clock for the
    // whole collision domain, SoA per-link state. Streams and draw order
    // match the scalar machines.
    clock_ = std::make_unique<SharedBackoffClock>(
        ctx.simulator, ctx.medium, ctx.phy.backoff_slot, ctx.num_links,
        [this](LinkId n) { on_backoff_expired(n); });
    rng_.reserve(ctx.num_links);
    for (LinkId n = 0; n < ctx.num_links; ++n) {
      rng_.emplace_back(ctx.seed, /*stream_id=*/0xFC500000000ULL + ctx.global_id(n));
    }
    window_.assign(ctx.num_links, 1);
    buffer_.assign(ctx.num_links, 0);
    delivered_.assign(ctx.num_links, 0);
    return;
  }
  links_.reserve(ctx.num_links);
  for (LinkId n = 0; n < ctx.num_links; ++n) {
    links_.push_back(std::make_unique<FcsmaLinkMac>(ctx.simulator, ctx.medium, ctx.debts,
                                                    ctx.success_prob, params_,
                                                    ctx.phy.data_airtime, ctx.phy.backoff_slot,
                                                    n, ctx.seed, ctx.global_id(n)));
  }
}

std::size_t FcsmaScheme::memory_bytes() const {
  if (clock_ == nullptr) return links_.size() * sizeof(FcsmaLinkMac);
  return rng_.capacity() * sizeof(Rng) +
         (window_.capacity() + buffer_.capacity() + delivered_.capacity()) * sizeof(int) +
         clock_->memory_bytes();
}

void FcsmaScheme::contend(LinkId n) {
  const int draw = static_cast<int>(rng_[n].uniform_int(0, window_[n] - 1));
  clock_->arm(n, draw);
}

void FcsmaScheme::on_backoff_expired(LinkId n) {
  if (sim_.now() + data_airtime_ > interval_end_) return;  // deadline gap rule
  medium_.start_transmission(n, data_airtime_, phy::PacketKind::kData,
                             [this, n](phy::TxOutcome o) { on_tx_done(n, o); });
}

void FcsmaScheme::on_tx_done(LinkId n, phy::TxOutcome outcome) {
  if (outcome == phy::TxOutcome::kDelivered) {
    --buffer_[n];
    ++delivered_[n];
  }
  // Collision or channel loss: the packet stays queued. Either way the link
  // redraws a fresh backoff for its next attempt.
  if (buffer_[n] > 0) contend(n);
}

void FcsmaScheme::begin_interval(IntervalIndex k, std::span<const int> arrivals,
                                 TimePoint interval_end) {
  if (clock_ == nullptr) {
    RTMAC_REQUIRE(arrivals.size() == links_.size());
    for (std::size_t n = 0; n < links_.size(); ++n) {
      links_[n]->begin_interval(k, arrivals[n], interval_end);
    }
    return;
  }
  RTMAC_REQUIRE(arrivals.size() == buffer_.size());
  interval_end_ = interval_end;
  clock_->begin_interval(sim_.now());
  for (LinkId n = 0; n < buffer_.size(); ++n) {
    RTMAC_REQUIRE(arrivals[n] >= 0);
    buffer_[n] = arrivals[n];
    delivered_[n] = 0;
    // The window reacts to debt once per interval (the discretized design:
    // the mapping is static within an interval and saturates for large debt).
    const double weight = params_.influence(debts_.debt_plus(n)) * p_[n];
    window_[n] = fcsma_window_for_weight(weight, params_);
    if (buffer_[n] > 0) contend(n);
  }
  clock_->finish_arming();
}

void FcsmaScheme::end_interval(std::span<int> delivered) {
  if (clock_ == nullptr) {
    RTMAC_REQUIRE(delivered.size() == links_.size());
    for (std::size_t n = 0; n < links_.size(); ++n) delivered[n] = links_[n]->end_interval();
    return;
  }
  RTMAC_REQUIRE(delivered.size() == buffer_.size());
  clock_->stop();
  for (LinkId n = 0; n < buffer_.size(); ++n) {
    delivered[n] = delivered_[n];
    buffer_[n] = 0;
  }
}

}  // namespace rtmac::mac
