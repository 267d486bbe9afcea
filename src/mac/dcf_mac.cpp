#include "mac/dcf_mac.hpp"

#include <algorithm>
#include <new>

#include "util/check.hpp"

namespace rtmac::mac {

DcfLinkMac::DcfLinkMac(sim::Simulator& simulator, phy::Medium& medium, DcfParams params,
                       Duration data_airtime, Duration slot, LinkId id, std::uint64_t seed,
                       LinkId stream_link)
    : sim_{simulator},
      medium_{medium},
      params_{params},
      data_airtime_{data_airtime},
      id_{id},
      rng_{seed, /*stream_id=*/0xDCF00000000ULL + (stream_link == kSameAsId ? id : stream_link)},
      cw_{params.cw_min},
      backoff_{simulator, medium, slot, id} {
  RTMAC_REQUIRE(params.cw_min >= 1 && params.cw_max >= params.cw_min);
}

void DcfLinkMac::begin_interval(IntervalIndex, int arrivals, TimePoint interval_end) {
  interval_end_ = interval_end;
  buffer_ = arrivals;
  delivered_ = 0;
  if (buffer_ > 0) contend();
}

void DcfLinkMac::contend() {
  const int draw = static_cast<int>(rng_.uniform_int(0, cw_ - 1));
  backoff_.start(draw, [this] { on_backoff_expired(); });
}

void DcfLinkMac::on_backoff_expired() {
  if (sim_.now() + data_airtime_ > interval_end_) return;
  medium_.start_transmission(id_, data_airtime_, phy::PacketKind::kData,
                             [this](phy::TxOutcome o) { on_tx_done(o); });
}

void DcfLinkMac::on_tx_done(phy::TxOutcome outcome) {
  if (outcome == phy::TxOutcome::kDelivered) {
    --buffer_;
    ++delivered_;
    cw_ = params_.cw_min;  // success resets the window
  } else {
    cw_ = std::min(cw_ * 2, params_.cw_max);  // binary exponential backoff
  }
  if (buffer_ > 0) contend();
}

int DcfLinkMac::end_interval() {
  backoff_.stop();
  buffer_ = 0;
  return delivered_;
}

DcfScheme::DcfScheme(const SchemeContext& ctx, DcfParams params, std::string name)
    : sim_{ctx.simulator},
      medium_{ctx.medium},
      params_{params},
      data_airtime_{ctx.phy.data_airtime},
      name_{std::move(name)} {
  RTMAC_REQUIRE(params.cw_min >= 1 && params.cw_max >= params.cw_min);
  if (ctx.medium.sense_closed() && !params.force_scalar_path) {
    // Batch path (sense-closed medium): one shared backoff clock for the
    // whole collision domain, SoA per-link state. Streams and draw order
    // match the scalar machines.
    clock_ = std::make_unique<SharedBackoffClock>(
        ctx.simulator, ctx.medium, ctx.phy.backoff_slot, ctx.num_links,
        [this](LinkId n) { on_backoff_expired(n); });
    rng_.reserve(ctx.num_links);
    for (LinkId n = 0; n < ctx.num_links; ++n) {
      rng_.emplace_back(ctx.seed, /*stream_id=*/0xDCF00000000ULL + ctx.global_id(n));
    }
    cw_.assign(ctx.num_links, params.cw_min);
    buffer_.assign(ctx.num_links, 0);
    delivered_.assign(ctx.num_links, 0);
    num_links_ = ctx.num_links;
    return;
  }
  util::Arena* arena = ctx.arena;
  if (arena == nullptr) {
    own_arena_ = std::make_unique<util::Arena>();
    arena = own_arena_.get();
  }
  // DcfLinkMac is not trivially destructible (the BackoffEngine holds a
  // freeze-record vector), so the block is raw arena bytes with manual
  // placement construction; the destructor tears the machines down.
  links_ = static_cast<DcfLinkMac*>(
      arena->allocate(ctx.num_links * sizeof(DcfLinkMac), alignof(DcfLinkMac)));
  num_links_ = 0;
  for (LinkId n = 0; n < ctx.num_links; ++n) {
    new (links_ + n) DcfLinkMac(ctx.simulator, ctx.medium, params, ctx.phy.data_airtime,
                                ctx.phy.backoff_slot, n, ctx.seed, ctx.global_id(n));
    ++num_links_;
  }
}

DcfScheme::~DcfScheme() {
  if (links_ == nullptr) return;
  for (std::size_t n = num_links_; n > 0; --n) links_[n - 1].~DcfLinkMac();
}

std::size_t DcfScheme::memory_bytes() const {
  if (clock_ == nullptr) return num_links_ * sizeof(DcfLinkMac);
  return rng_.capacity() * sizeof(Rng) +
         (cw_.capacity() + buffer_.capacity() + delivered_.capacity()) * sizeof(int) +
         clock_->memory_bytes();
}

void DcfScheme::contend(LinkId n) {
  const int draw = static_cast<int>(rng_[n].uniform_int(0, cw_[n] - 1));
  clock_->arm(n, draw);
}

void DcfScheme::on_backoff_expired(LinkId n) {
  if (sim_.now() + data_airtime_ > interval_end_) return;
  medium_.start_transmission(n, data_airtime_, phy::PacketKind::kData,
                             [this, n](phy::TxOutcome o) { on_tx_done(n, o); });
}

void DcfScheme::on_tx_done(LinkId n, phy::TxOutcome outcome) {
  if (outcome == phy::TxOutcome::kDelivered) {
    --buffer_[n];
    ++delivered_[n];
    cw_[n] = params_.cw_min;  // success resets the window
  } else {
    cw_[n] = std::min(cw_[n] * 2, params_.cw_max);  // binary exponential backoff
  }
  if (buffer_[n] > 0) contend(n);
}

void DcfScheme::begin_interval(IntervalIndex k, std::span<const int> arrivals,
                               TimePoint interval_end) {
  RTMAC_REQUIRE(arrivals.size() == num_links_);
  if (clock_ == nullptr) {
    for (std::size_t n = 0; n < num_links_; ++n) {
      links_[n].begin_interval(k, arrivals[n], interval_end);
    }
    return;
  }
  interval_end_ = interval_end;
  clock_->begin_interval(sim_.now());
  for (LinkId n = 0; n < num_links_; ++n) {
    buffer_[n] = arrivals[n];
    delivered_[n] = 0;
    if (buffer_[n] > 0) contend(n);
  }
  clock_->finish_arming();
}

void DcfScheme::end_interval(std::span<int> delivered) {
  RTMAC_REQUIRE(delivered.size() == num_links_);
  if (clock_ == nullptr) {
    for (std::size_t n = 0; n < num_links_; ++n) delivered[n] = links_[n].end_interval();
    return;
  }
  clock_->stop();
  for (LinkId n = 0; n < num_links_; ++n) {
    delivered[n] = delivered_[n];
    buffer_[n] = 0;
  }
}

}  // namespace rtmac::mac
