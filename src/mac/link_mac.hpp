// MAC-scheme interfaces binding protocols to the interval structure.
//
// A MacScheme is one complete medium-access discipline for the whole
// network (decentralized schemes own one state machine per link; the
// centralized ELDF genie is a single scheduler). The Network drives it:
// begin_interval() delivers this interval's arrivals, the scheme contends
// on the shared Medium during the interval, end_interval() reports how many
// packets each link delivered on time.
#pragma once

#include <cstdint>
#include <functional>  // lint-ok: std-function factory type below, config-time only
#include <memory>
#include <span>
#include <string>

#include "core/debt.hpp"
#include "core/types.hpp"
#include "phy/medium.hpp"
#include "phy/phy_params.hpp"
#include "sim/simulator.hpp"
#include "util/arena.hpp"

namespace rtmac::mac {

/// One medium-access discipline driving all N links for the experiment.
class MacScheme {
 public:
  virtual ~MacScheme() = default;

  /// Starts interval k. `arrivals[n]` packets appear in link n's buffer,
  /// all with absolute deadline `interval_end`. Called at time kT. The
  /// caller owns the buffer (pre-sized from NetworkConfig); the view is
  /// valid only for the duration of the call.
  virtual void begin_interval(IntervalIndex k, std::span<const int> arrivals,
                              TimePoint interval_end) = 0;

  /// Closes the interval at time (k+1)T after the medium has gone idle.
  /// Writes S(k) — on-time deliveries — into `delivered[n]` for EVERY link
  /// (caller-owned, sized num_links; no element may be left stale).
  /// Implementations must drop all undelivered packets (deadline expiry)
  /// and quiesce. Neither interval call may allocate in steady state: the
  /// per-interval hot path is gated allocation-free (BM_DbdpIntervalAllocs).
  virtual void end_interval(std::span<int> delivered) = 0;

  /// Human-readable scheme name for reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Can this scheme run on a shard cell (a subset of the links with only
  /// local carrier-sense information)? True for every decentralized scheme;
  /// the centralized genie needs global knowledge and must override to
  /// false. The sharded Network refuses non-shardable schemes up front.
  [[nodiscard]] virtual bool shardable() const { return true; }

  /// Bytes of long-lived per-link state this scheme holds (heap or arena),
  /// feeding the mem.mac gauge. Schemes with meaningful per-link footprints
  /// override; the default 0 keeps small fixed-size schemes honest enough.
  [[nodiscard]] virtual std::size_t memory_bytes() const { return 0; }

  /// Peak simultaneously-pending simulator events per link this scheme can
  /// hold — expiry timers plus in-flight completions — feeding the per-cell
  /// event reserve under sharding. Batch shared-clock layouts hold ONE
  /// domain expiry event for the whole cell plus at most one completion per
  /// link and override to 1; the conservative default covers per-link
  /// engines with parked expiries. The reserve is a pre-size, not a cap:
  /// an underestimate costs reallocations (engine.events.reallocs gauges
  /// it), never correctness.
  [[nodiscard]] virtual std::size_t pending_events_per_link() const { return 6; }
};

/// Everything a scheme implementation may depend on, owned by the Network.
/// Schemes hold references; the Network guarantees lifetime.
struct SchemeContext {
  sim::Simulator& simulator;
  phy::Medium& medium;
  const phy::PhyParams& phy;
  Duration interval_length;
  std::size_t num_links;
  const ProbabilityVector& success_prob;   ///< p_n, known to transmitters (paper SII-A)
  const core::DebtTracker& debts;          ///< updated by the Network between intervals
  std::uint64_t seed;                      ///< root seed for scheme-local randomness

  // Cell identity. Standalone harnesses keep the defaults and global_id()
  // is the identity, so every brace-initialization site stays valid. On a
  // Network cell, `num_links`,
  // `medium`, `debts` etc. are cell-local, while `link_ids` maps local
  // indices back to the network-wide ids that RNG streams, trace labels and
  // the DP priority space are keyed by — results must not depend on the
  // partition.
  std::span<const LinkId> link_ids{};      ///< local -> global map; empty = identity
  std::size_t global_num_links = 0;        ///< network-wide N; 0 = num_links
  /// Optional arena for cold per-link scheme state (shared across cells by
  /// the sharded Network). Null = scheme allocates from the heap as before.
  util::Arena* arena = nullptr;

  /// Global id of local link n.
  [[nodiscard]] LinkId global_id(LinkId n) const {
    return link_ids.empty() ? n : link_ids[n];
  }
  /// The network-wide link count (the DP priority space).
  [[nodiscard]] std::size_t priority_space() const {
    return global_num_links == 0 ? num_links : global_num_links;
  }
};

/// Factory used by the Network to instantiate the scheme under test.
// Copyable by design: sweep runners hand the same factory to many Networks.
// Setup-time only, so std::function's allocation behaviour is irrelevant.
using SchemeFactory = std::function<std::unique_ptr<MacScheme>(const SchemeContext&)>;  // lint-ok: std-function copyable config-time factory

}  // namespace rtmac::mac
