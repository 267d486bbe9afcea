#include "mac/dp_batch_kernel.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace rtmac::mac {

// ---- SharedSeed -------------------------------------------------------------

void SharedSeed::candidate_set_into(IntervalIndex k, std::size_t num_links, int max_pairs,
                                    std::vector<PriorityIndex>& anchors_scratch,
                                    std::vector<PriorityIndex>& out) const {
  RTMAC_REQUIRE(num_links >= 2);
  RTMAC_REQUIRE(max_pairs >= 1);
  out.clear();
  if (max_pairs == 1) {
    out.push_back(candidate(k, num_links));
    return;
  }

  // Deterministic shuffle of {1..N-1}, then greedy acceptance of
  // non-conflicting pair anchors (|m - m'| >= 2 keeps pairs disjoint).
  // Every device runs this with the same (seed, k), so the sets agree.
  Rng rng{mix64(seed_, k)};
  anchors_scratch.resize(num_links - 1);
  for (std::size_t i = 0; i < anchors_scratch.size(); ++i) {
    anchors_scratch[i] = static_cast<PriorityIndex>(i + 1);
  }
  for (std::size_t i = anchors_scratch.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(anchors_scratch[i - 1], anchors_scratch[j]);
  }
  for (PriorityIndex m : anchors_scratch) {
    if (static_cast<int>(out.size()) >= max_pairs) break;
    bool conflicts = false;
    for (PriorityIndex c : out) {
      const auto d = m > c ? m - c : c - m;
      if (d < 2) {
        conflicts = true;
        break;
      }
    }
    if (!conflicts) out.push_back(m);
  }
  std::sort(out.begin(), out.end());
}

std::vector<PriorityIndex> SharedSeed::candidate_set(IntervalIndex k, std::size_t num_links,
                                                     int max_pairs) const {
  std::vector<PriorityIndex> scratch;
  std::vector<PriorityIndex> out;
  candidate_set_into(k, num_links, max_pairs, scratch, out);
  return out;
}

// ---- eq. (6) backoff assignment ---------------------------------------------

bool dp_is_candidate(PriorityIndex sigma, std::span<const PriorityIndex> pairs,
                     bool* is_lower) {
  for (PriorityIndex m : pairs) {
    if (sigma == m || sigma == m + 1) {
      if (is_lower != nullptr) *is_lower = (sigma == m);
      return true;
    }
  }
  return false;
}

int dp_backoff_count(PriorityIndex sigma, std::span<const PriorityIndex> pairs, int xi) {
  int shift = 0;
  bool candidate = false;
  for (PriorityIndex m : pairs) {
    if (m + 1 < sigma) shift += 2;
    if (sigma == m || sigma == m + 1) candidate = true;
  }
  if (candidate) {
    RTMAC_ASSERT(xi == 1 || xi == -1);
    return static_cast<int>(sigma) - xi + shift;
  }
  return static_cast<int>(sigma) - 1 + shift;
}

// ---- DpBatchKernel ----------------------------------------------------------

DpBatchKernel::DpBatchKernel(std::size_t num_links, SharedSeed shared_seed,
                             const PriorityProvider& provider, bool reordering, int max_pairs,
                             std::span<const PriorityIndex> initial_priorities,
                             std::uint64_t seed, std::size_t priority_space,
                             std::span<const LinkId> stream_ids)
    : shared_seed_{shared_seed},
      provider_{provider},
      reordering_{reordering},
      max_pairs_{max_pairs},
      priority_space_{priority_space == 0 ? num_links : priority_space},
      sigma_(num_links),
      role_(num_links, 0),
      xi_(num_links, 0),
      beta_(num_links, 0) {
  RTMAC_REQUIRE(num_links >= 1);
  RTMAC_REQUIRE(max_pairs >= 1);
  RTMAC_REQUIRE(priority_space_ >= num_links);
  RTMAC_REQUIRE(initial_priorities.size() == num_links);
  RTMAC_REQUIRE(stream_ids.empty() || stream_ids.size() == num_links);
  coin_rng_.reserve(num_links);
  for (LinkId n = 0; n < num_links; ++n) {
    const PriorityIndex pr = initial_priorities[n];
    RTMAC_REQUIRE(pr >= 1 && pr <= priority_space_);
    sigma_[n] = pr;
    // Same stream derivation as the scalar DpLinkMac, so coin draws agree.
    // A shard cell keys by global id so its draws match the unsharded run.
    const LinkId stream = stream_ids.empty() ? n : stream_ids[n];
    coin_rng_.emplace_back(seed, /*stream_id=*/0xD100000000ULL + stream);
  }
  pairs_.reserve(static_cast<std::size_t>(max_pairs));
  // Only the multi-pair draw shuffles the anchor range; one pair needs no
  // working set.
  if (max_pairs > 1 && priority_space_ >= 2) anchors_scratch_.reserve(priority_space_ - 1);
}

void DpBatchKernel::plan_interval(IntervalIndex k) {
  const std::size_t n_links = sigma_.size();
  const bool reorder = reordering_ && priority_space_ >= 2;
  pairs_.clear();
  if (reorder) {
    // Step 1: shared candidate draw over the GLOBAL priority space — every
    // cell of a sharded domain derives the identical set.
    shared_seed_.candidate_set_into(k, priority_space_, max_pairs_, anchors_scratch_, pairs_);
  }

  // Steps 3-4 (eqs. 5-6, generalized per Remark 6): one flat pass. Every
  // candidate pair (m, m+1) widens the backoff schedule by 2 slots so the
  // candidates' coin-modulated choices {m-1, m, m+1, m+2} (plus the per-pair
  // shift) never touch a bystander's slot. With a single pair the
  // expressions reduce exactly to eq. (6).
  for (LinkId n = 0; n < n_links; ++n) {
    const PriorityIndex sigma = sigma_[n];
    Role role = Role::kBystander;
    int xi = 0;
    if (reorder) {
      bool is_lower = false;
      if (dp_is_candidate(sigma, pairs_, &is_lower)) {
        role = is_lower ? Role::kLower : Role::kUpper;
        // Step 3 (eq. 5): local biased coin, from the link's own stream.
        xi = coin_rng_[n].bernoulli(provider_.mu(n, k)) ? +1 : -1;
      }
      beta_[n] = dp_backoff_count(sigma, pairs_, xi);
    } else {
      beta_[n] = static_cast<int>(sigma) - 1;  // static priorities: TDMA-by-backoff
    }
    role_[n] = static_cast<std::uint8_t>(role);
    xi_[n] = static_cast<std::int8_t>(xi);
  }
}

int DpBatchKernel::resolve_swap(LinkId n, bool frozen_at_one, bool claim_aired) {
  // Step 5 (eqs. 7-8), applied at the interval boundary so the change takes
  // effect next interval. With unique backoff counts, a freeze at remaining
  // count 1 can only be caused by the swap partner's transmission, so the
  // carrier-sense record alone decides the swap:
  //  * lower candidate (priority C), coin "down" (xi=-1): moves down iff the
  //    channel turned busy when its count stood at 1 — i.e. the upper
  //    candidate claimed the earlier slot and transmitted in it;
  //  * upper candidate (priority C+1), coin "up" (xi=+1): moves up iff its
  //    count passed 1 -> 0 with the channel idle AND its claim actually went
  //    on the air (if the gap rule suppressed the transmission, the partner
  //    cannot have heard anything, and both sides must conclude "no swap").
  const Role role = static_cast<Role>(role_[n]);
  if (role == Role::kLower && xi_[n] == -1 && frozen_at_one) {
    ++sigma_[n];
    return +1;
  }
  if (role == Role::kUpper && xi_[n] == +1 && !frozen_at_one && claim_aired) {
    --sigma_[n];
    return -1;
  }
  return 0;
}

void DpBatchKernel::validate_permutation() {
  // Range and uniqueness of this kernel's own sigmas, in O(k log k): a cell
  // of a larger domain holds k of the N global priorities.
  perm_scratch_.assign(sigma_.begin(), sigma_.end());
  std::sort(perm_scratch_.begin(), perm_scratch_.end());
  RTMAC_ASSERT(perm_scratch_.front() >= 1 && perm_scratch_.back() <= priority_space_,
               "priority state diverged: priority out of range (",
               perm_scratch_.front() < 1 ? perm_scratch_.front() : perm_scratch_.back(),
               " among N=", priority_space_, ")");
  const auto dup = std::adjacent_find(perm_scratch_.begin(), perm_scratch_.end());
  RTMAC_ASSERT(dup == perm_scratch_.end(),
               "priority state diverged: swap decisions inconsistent (priority ",
               dup == perm_scratch_.end() ? 0 : *dup, " among N=", priority_space_, ")");
}

// ---- DpBatchBackoff ---------------------------------------------------------

DpBatchBackoff::DpBatchBackoff(sim::Simulator& simulator, phy::Medium& medium, Duration slot,
                               std::size_t num_links, std::size_t freeze_capacity_hint,
                               ExpiryHandler on_expire)
    : sim_{simulator},
      medium_{medium},
      slot_{slot},
      num_links_{num_links},
      on_expire_{std::move(on_expire)},
      betas_(num_links, 0) {
  RTMAC_REQUIRE(slot.ns() > 0);
  order_.reserve(num_links);
  freeze_log_.reserve(freeze_capacity_hint);
  medium_.add_listener(this);  // global view: the domain has complete sensing
}

void DpBatchBackoff::begin_interval(TimePoint now, std::span<const int> betas,
                                    std::span<const std::uint8_t> armed, bool include_unarmed) {
  RTMAC_REQUIRE(betas.size() == num_links_ && armed.size() == num_links_);
  stop();
  std::copy(betas.begin(), betas.end(), betas_.begin());
  // Windows are unique per interval, so ordering the scheduled links by
  // window is a plain sort and at most one expiry is ever due at a time.
  order_.clear();
  for (LinkId n = 0; n < num_links_; ++n) {
    if (include_unarmed || armed[n] != 0) {
      RTMAC_ASSERT(betas_[n] >= 0, "negative backoff window");
      order_.push_back(n);
    }
  }
  const auto by_window = [this](LinkId a, LinkId b) { return betas_[a] < betas_[b]; };
  std::sort(order_.begin(), order_.end(), by_window);
  RTMAC_ASSERT(std::adjacent_find(order_.begin(), order_.end(),
                                  [this](LinkId a, LinkId b) {
                                    return betas_[a] == betas_[b];
                                  }) == order_.end(),
               "duplicate backoff window");
  next_ = 0;
  freeze_log_.clear();
  elapsed_at_resume_ = 0;
  in_interval_ = true;
  if (medium_.sense_busy(phy::Medium::kAllNodes)) {
    // Defensive: the Network's gap-rule invariant keeps interval starts
    // idle, but mirror BackoffEngine::start anyway (freeze without a log
    // entry; the clock has not run yet).
    frozen_ = true;
    elapsed_frozen_ = 0;
    freeze_time_ = now;
  } else {
    frozen_ = false;
    resume_time_ = now;
    schedule_next();
  }
}

void DpBatchBackoff::stop() {
  if (expiry_event_.valid()) sim_.cancel(expiry_event_);
  expiry_event_ = sim::EventId{};
  if (in_interval_ && frozen_) account_freezes(sim_.now());
  frozen_ = false;
  in_interval_ = false;
}

bool DpBatchBackoff::frozen_with_remaining(int beta, int remaining) const {
  for (int elapsed : freeze_log_) {
    if (beta - elapsed == remaining) return true;
  }
  return false;
}

int DpBatchBackoff::elapsed_slots() const {
  if (!in_interval_) return 0;
  if (frozen_) return elapsed_frozen_;
  return elapsed_at_resume_ + static_cast<int>((sim_.now() - resume_time_).floor_div(slot_));
}

void DpBatchBackoff::schedule_next() {
  if (next_ >= order_.size()) return;
  const LinkId link = order_[next_];
  const TimePoint at = resume_time_ + (betas_[link] - elapsed_at_resume_) * slot_;
  expiry_event_ = sim_.schedule_at(at, [this] { fire(); });
}

void DpBatchBackoff::fire() {
  expiry_event_ = sim::EventId{};
  const LinkId link = order_[next_++];
  if (sim::Tracer* tracer = medium_.tracer(); tracer != nullptr) {
    tracer->record(sim_.now(), sim::TraceKind::kBackoffExpired, link);
  }
  on_expire_(link);
  // If the handler started a transmission, our own on_medium_busy already
  // froze the clock (synchronously, inside start_transmission); only an
  // idle clock keeps counting toward the next window. A burst resolves the
  // whole freeze/resume cycle inside the handler (Medium::end_burst runs the
  // idle transition synchronously), in which case on_medium_idle has already
  // re-armed the expiry — the handle check keeps this from double-scheduling.
  if (in_interval_ && !frozen_ && !expiry_event_.valid()) schedule_next();
}

void DpBatchBackoff::on_medium_busy(TimePoint t) {
  if (!in_interval_ || frozen_) return;
  const int elapsed =
      elapsed_at_resume_ + static_cast<int>((t - resume_time_).floor_div(slot_));
  frozen_ = true;
  elapsed_frozen_ = elapsed;
  freeze_time_ = t;
  freeze_log_.push_back(elapsed);
  if (expiry_event_.valid()) sim_.cancel(expiry_event_);
  expiry_event_ = sim::EventId{};
  if (sim::Tracer* tracer = medium_.tracer(); tracer != nullptr) {
    // Per-engine emulation: every link whose window has not yet elapsed
    // freezes here, in link order (the order the scalar engines registered).
    for (LinkId n = 0; n < num_links_; ++n) {
      if (betas_[n] > elapsed) {
        tracer->record(t, sim::TraceKind::kBackoffFrozen, n, betas_[n] - elapsed);
      }
    }
  }
}

void DpBatchBackoff::on_medium_idle(TimePoint t) {
  if (!in_interval_ || !frozen_) return;
  frozen_ = false;
  account_freezes(t);
  if (sim::Tracer* tracer = medium_.tracer(); tracer != nullptr) {
    for (LinkId n = 0; n < num_links_; ++n) {
      if (betas_[n] > elapsed_frozen_) {
        tracer->record(t, sim::TraceKind::kBackoffResumed, n, betas_[n] - elapsed_frozen_);
      }
    }
  }
  elapsed_at_resume_ = elapsed_frozen_;
  resume_time_ = t;
  schedule_next();
}

void DpBatchBackoff::account_freezes(TimePoint resume_at) {
  if (obs::MetricsRegistry* m = medium_.metrics(); m != metrics_seen_) {
    metrics_seen_ = m;
    freeze_hist_ = nullptr;
    freeze_ns_.assign(num_links_, nullptr);
    if (m != nullptr) {
      freeze_hist_ =
          &m->histogram("mac.backoff_freeze_us", obs::log_bounds(1.0, 65536.0, 2.0));
      for (LinkId n = 0; n < num_links_; ++n) {
        freeze_ns_[n] = &m->counter(obs::link_metric("mac.freeze_ns", n));
      }
    }
  }
  if (freeze_hist_ == nullptr) return;
  const Duration frozen_for = resume_at - freeze_time_;
  // Same accounting the scalar engines perform independently: every link
  // still counting down when the freeze began spent `frozen_for` frozen.
  for (LinkId n = 0; n < num_links_; ++n) {
    if (betas_[n] > elapsed_frozen_) {
      freeze_hist_->observe(frozen_for.us_f());
      freeze_ns_[n]->inc(static_cast<std::uint64_t>(frozen_for.ns()));
    }
  }
}

}  // namespace rtmac::mac
