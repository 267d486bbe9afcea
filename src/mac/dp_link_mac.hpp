// The Decentralized Priority (DP) protocol — the paper's Algorithm 2.
//
// Each link holds a unique priority index sigma_n(k) in {1..N} and derives a
// collision-free backoff count from it (eq. 6). One adjacent pair of
// priorities {C(k), C(k)+1} is drawn per interval from a seed shared by all
// devices; the two candidate links toss biased coins xi_n (eq. 5) and detect
// each other's intent purely through carrier sensing at backoff value 1
// (eqs. 7-8), swapping priorities for the next interval when both agree.
// Candidates with no arrivals transmit a short "empty packet" so the swap
// can always be confirmed on the air; confirmed or not, the whole interval
// carries no collisions because backoff counts are unique.
//
// The per-interval protocol math lives in DpBatchKernel (mac/dp_batch_kernel
// .hpp) as flat SoA passes shared by two execution paths:
//   * batch (default on a sense-closed medium): one shared backoff clock
//     (DpBatchBackoff) drives all links' DpLinkAir transmission machines —
//     the allocation-free hot path;
//   * scalar reference (partial sensing, or force_scalar_path): one
//     DpLinkMac per link, each with its own BackoffEngine listening on its
//     own sense view — the faithful per-device state machine the batch path
//     is tested bit-identical against.
// DpScheme wires either path to the shared Medium and implements the
// MacScheme contract.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/permutation.hpp"
#include "core/types.hpp"
#include "mac/backoff_engine.hpp"
#include "mac/dp_batch_kernel.hpp"
#include "mac/link_mac.hpp"
#include "mac/priority_provider.hpp"
#include "mac/reliability_estimator.hpp"
#include "phy/medium.hpp"
#include "phy/phy_params.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rtmac::mac {

/// Static configuration of one DP link.
struct DpLinkParams {
  Duration data_airtime;
  Duration empty_airtime;
  Duration backoff_slot;
  /// When false, Step 1-5 reordering is disabled entirely: priorities stay
  /// fixed forever (the Fig. 6 "fixed priority ordering" experiment).
  bool reordering = true;
  /// Remark 6: number of disjoint candidate pairs drawn per interval.
  /// 1 is the base protocol of Algorithm 2; larger values trade a slightly
  /// larger worst-case backoff (up to ~N + 2*pairs slots) for faster
  /// convergence of the priority chain.
  int max_swap_pairs = 1;
  /// Debug/testing: run the per-link scalar reference path even where the
  /// batch path applies (complete sensing). The equivalence tests assert
  /// both paths produce bit-identical results.
  bool force_scalar_path = false;
};

/// The transmission half of one DP link: buffer, gap rule (Remark 4),
/// priority-claim empties, retransmit-until-deadline. Driven by a backoff
/// clock (shared or per-link) through on_slot_won(); knows nothing about
/// priorities or coins.
class DpLinkAir {
 public:
  /// `estimator`, when non-null, receives the outcome of every clean data
  /// transmission this link makes (the "learning p_n" mode of Section II-A).
  /// `allow_burst` opts this machine into the Medium burst fast path (one
  /// event per back-to-back chain instead of one per packet); only the batch
  /// execution path enables it, so the scalar reference path keeps the
  /// per-event machinery the burst is tested bit-identical against.
  DpLinkAir(sim::Simulator& simulator, phy::Medium& medium, const DpLinkParams& params,
            LinkId id, ReliabilityEstimator* estimator, bool allow_burst = false);

  /// Resets per-interval state. `is_candidate` enables the Step 2 empty
  /// priority-claim behaviour for this interval.
  void begin(int arrivals, TimePoint interval_end, bool is_candidate);

  /// The link's backoff window elapsed: attempt the first transmission.
  void on_slot_won();

  /// Step 7 deadline flush; returns this interval's on-time deliveries.
  int finish();

  /// True iff this link has anything to put on the air this interval (data
  /// or a pending priority claim) — i.e. its backoff expiry can matter.
  [[nodiscard]] bool armed() const { return buffer_ > 0 || empty_claim_pending_; }

  /// True iff the at-expiry claim actually aired (first transmission began).
  [[nodiscard]] bool aired() const { return first_tx_started_; }

  /// Number of transmissions (data + empty) started this interval (R_n).
  [[nodiscard]] int transmissions_started() const { return tx_started_; }

  [[nodiscard]] LinkId id() const { return id_; }

 private:
  void try_transmit();
  void run_burst();
  void on_tx_done(phy::PacketKind kind, phy::TxOutcome outcome);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  DpLinkParams params_;
  LinkId id_;
  ReliabilityEstimator* estimator_;  ///< optional, not owned
  bool allow_burst_ = false;

  // Per-interval state.
  TimePoint interval_end_;
  int buffer_ = 0;  ///< undelivered data packets
  bool is_candidate_ = false;
  bool empty_claim_pending_ = false;
  int delivered_ = 0;
  int tx_started_ = 0;
  bool first_tx_started_ = false;  ///< the at-expiry claim actually aired
};

/// Scalar reference path: one link's air machine plus its own BackoffEngine
/// (listening on the link's own sense view, so it also models partial
/// sensing / hidden terminals). The priority math stays in DpBatchKernel.
class DpLinkMac {
 public:
  /// `id` indexes the Medium (cell-local under sharding); `trace_link` is
  /// the label used for traces and freeze metrics and defaults to `id` — a
  /// shard cell passes the link's global id so merged metrics line up with
  /// the unsharded run.
  DpLinkMac(sim::Simulator& simulator, phy::Medium& medium, const DpLinkParams& params,
            LinkId id, ReliabilityEstimator* estimator = nullptr,
            LinkId trace_link = kSameAsId);

  /// Sentinel for `trace_link`: use `id`.
  static constexpr LinkId kSameAsId = static_cast<LinkId>(-1);

  DpLinkMac(const DpLinkMac&) = delete;
  DpLinkMac& operator=(const DpLinkMac&) = delete;

  /// Arms the engine for interval k with the kernel-computed window.
  void begin_interval(int arrivals, TimePoint interval_end, bool is_candidate,
                      int backoff_count);

  void stop_backoff() { backoff_.stop(); }
  [[nodiscard]] bool frozen_at_one() const { return backoff_.was_frozen_at(1); }
  /// Upper-candidate swap evidence: countdown expired AND the claim aired.
  [[nodiscard]] bool claim_aired() const { return backoff_.expired() && air_.aired(); }
  int finish() { return air_.finish(); }
  [[nodiscard]] const DpLinkAir& air() const { return air_; }

 private:
  DpLinkAir air_;
  BackoffEngine backoff_;
};

/// MacScheme gluing the kernel, the backoff clock(s), and N air machines
/// together. The per-link pieces never talk to each other; the scheme only
/// fans out interval boundaries (which in a real deployment come from the
/// devices' own synchronized clocks) and aggregates statistics.
class DpScheme final : public MacScheme {
 public:
  /// The scheme owns its coin-bias provider. Initial priorities are the
  /// identity permutation unless `initial` is given. `estimator`, when
  /// non-null, must live inside `provider` (e.g. EstimatedMuProvider) or
  /// otherwise outlive the scheme; every link reports its clean data
  /// transmission outcomes to it.
  DpScheme(const SchemeContext& ctx, std::unique_ptr<PriorityProvider> provider,
           DpLinkParams params, std::string name,
           std::optional<core::Permutation> initial = std::nullopt,
           ReliabilityEstimator* estimator = nullptr);

  void begin_interval(IntervalIndex k, std::span<const int> arrivals,
                      TimePoint interval_end) override;
  void end_interval(std::span<int> delivered) override;
  [[nodiscard]] std::string name() const override { return name_; }

  /// Current priority assignment (valid between intervals). Debug/analysis.
  [[nodiscard]] core::Permutation priorities() const;

  /// Raw per-link priority indices without the bijection check (diagnostics).
  [[nodiscard]] std::vector<PriorityIndex> priority_vector() const;

  /// The SoA per-interval state (observability reads priorities / backoff
  /// windows straight from the arrays).
  [[nodiscard]] const DpBatchKernel& kernel() const { return kernel_; }

  /// True when this scheme runs the shared-clock batch path.
  [[nodiscard]] bool batch_path() const { return batch_; }

  [[nodiscard]] std::size_t pending_events_per_link() const override {
    return batch_ ? 1 : 6;
  }

  [[nodiscard]] std::size_t memory_bytes() const override;

 private:
  void on_slot_won(LinkId n);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  // Declaration order matters: kernel_ dereferences provider_.
  std::unique_ptr<PriorityProvider> provider_;
  DpBatchKernel kernel_;
  std::string name_;
  /// Swap decisions compose into a permutation only when every device hears
  /// every transmission; under partial sensing the consistency invariant is
  /// expected to break (hidden terminals), so the debug check is gated on a
  /// sense-closed medium. On a sense-closed shard cell the check covers the
  /// cell's slice: a swap with a partner in another cell is one-sided, but
  /// it moves the local link onto a priority no local link holds.
  bool sensing_complete_ = true;
  bool batch_ = true;

  // Batch path: shared clock + flat air machines.
  std::vector<DpLinkAir> airs_;
  std::unique_ptr<DpBatchBackoff> batch_backoff_;
  std::vector<std::uint8_t> armed_scratch_;

  // Scalar reference path: per-link engines on per-node sense views.
  std::vector<std::unique_ptr<DpLinkMac>> links_;
};

}  // namespace rtmac::mac
