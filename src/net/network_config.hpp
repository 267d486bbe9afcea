// Experiment-level network description: (N, A, T, p) plus requirements.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/requirements.hpp"
#include "core/types.hpp"
#include "phy/channel_model.hpp"
#include "phy/interference.hpp"
#include "phy/phy_params.hpp"
#include "traffic/arrival_process.hpp"
#include "traffic/joint_arrivals.hpp"
#include "util/time.hpp"

namespace rtmac::net {

/// Full specification of one simulated network. Move-only (owns the arrival
/// processes). Mirrors the paper's tuple (N, A, T, p) plus the requirement
/// vector q expressed as (lambda, rho).
struct NetworkConfig {
  Duration interval_length;                  ///< the deadline T
  phy::PhyParams phy;                        ///< airtimes and slot width
  ProbabilityVector success_prob;            ///< p_n per link (policy-visible)
  std::vector<std::unique_ptr<traffic::ArrivalProcess>> arrivals;  ///< A_n per link
  /// Uniform-network shortcut: one shared arrival spec for all links. When
  /// set (and `arrivals` is empty) the Network samples every link from this
  /// process via a single broadcast kernel row instead of materializing
  /// num_links() clones — at 10^6 links that is the difference between one
  /// object and ~50 MB of identical ones. Draw-for-draw equivalent to the
  /// per-link layout; symmetric_network() now produces this form.
  std::unique_ptr<traffic::ArrivalProcess> uniform_arrivals;
  core::Requirements requirements;           ///< lambda_n and rho_n
  std::uint64_t seed = 1;                    ///< root seed for the whole run
  /// Optional loss-process override (e.g. a GilbertElliottChannel for the
  /// bursty-loss robustness ablation). When unset, the channel is the
  /// paper's i.i.d. Bernoulli(success_prob). The policies always see
  /// `success_prob` as their p_n estimate, so a model whose long-run mean
  /// differs from it deliberately exercises estimation mismatch.
  phy::ChannelModelFactory channel_factory;
  /// Optional cross-link correlated traffic (Section II-B permits arrival
  /// counts correlated across links within an interval). When set it
  /// replaces the per-link `arrivals` sampling; `requirements.lambda` must
  /// match its per-link means.
  std::unique_ptr<traffic::JointArrivalProcess> joint_arrivals;
  /// Optional interference topology. When unset, the Medium uses the
  /// paper's complete collision domain (every pair of links conflicts and
  /// every device hears every transmission). A partial graph enables
  /// hidden-terminal and spatial-reuse experiments; its size must equal
  /// num_links().
  std::optional<phy::InterferenceGraph> topology;
  /// Adjacency-list topology for city-scale runs where the dense n x n
  /// InterferenceGraph is unaffordable. Requires `shards >= 1` or
  /// `auto_shard` (each cell builds a small dense graph of its own links);
  /// mutually exclusive with `topology`. Shared (immutable) across clones.
  std::shared_ptr<const phy::SparseTopology> sparse_topology;
  /// Sharded execution: 0 = one cell over all links, no partition; S >= 1
  /// partitions the conflict graph into cells and runs them on up to S
  /// parallel groups (deterministically — results are independent of S and
  /// of shard_jobs). Requires the default Bernoulli channel.
  std::size_t shards = 0;
  /// When true and `shards == 0`, pick a shard count automatically
  /// (hardware concurrency, capped by the number of cells).
  bool auto_shard = false;
  /// Execution lanes that run the plan's groups: the calling thread plus
  /// shard_jobs - 1 persistent workers; 0 = min(groups, hardware).
  std::size_t shard_jobs = 0;

  [[nodiscard]] std::size_t num_links() const { return success_prob.size(); }

  /// Size of the caller-owned per-interval buffers (arrivals in, deliveries
  /// out) the Network pre-allocates so the interval hot loop never touches
  /// the heap: one int slot per link. Split out from num_links() so any
  /// future padding/alignment tweak of the SoA buffers has one home.
  [[nodiscard]] std::size_t interval_buffer_hint() const { return num_links(); }

  /// Validates internal consistency (sizes match, probabilities in range,
  /// declared lambda equals each arrival process's mean). Returns true and
  /// leaves `error` untouched on success.
  [[nodiscard]] bool validate(std::string* error = nullptr) const;

  /// Deep copy (arrival processes cloned) — configs are templates reused
  /// across sweep points and schemes.
  [[nodiscard]] NetworkConfig clone() const;
};

/// Convenience builder for symmetric networks: every link shares the same
/// reliability, arrival process, and delivery ratio.
[[nodiscard]] NetworkConfig symmetric_network(std::size_t num_links, Duration interval_length,
                                              const phy::PhyParams& phy, double p,
                                              const traffic::ArrivalProcess& arrivals,
                                              double rho, std::uint64_t seed);

}  // namespace rtmac::net
