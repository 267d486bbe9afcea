// The paper's Section VI scenarios and scheme factories, in one place.
//
// Every bench and example builds its networks through these helpers so the
// constants (20 links / 20 ms / p=0.7 / ... ) exist exactly once and match
// the paper. See DESIGN.md section 4 for the experiment index.
#pragma once

#include <cstdint>

#include "core/influence.hpp"
#include "mac/dcf_mac.hpp"
#include "mac/dp_link_mac.hpp"
#include "mac/fcsma_mac.hpp"
#include "mac/link_mac.hpp"
#include "net/network_config.hpp"

namespace rtmac::expfw {

// ---- Paper constants (Section VI) ------------------------------------------

/// Video delivery (VI-A): 20 links, 1500 B / 330 us, deadline 20 ms
/// (up to 60 transmissions per interval), p* = 0.7, 5000 intervals.
struct VideoScenario {
  static constexpr std::size_t kNumLinks = 20;
  static constexpr double kReliability = 0.7;
  static constexpr IntervalIndex kIntervals = 5000;
  [[nodiscard]] static Duration deadline() { return Duration::milliseconds(20); }
};

/// Control delivery (VI-B): 10 links, 100 B / 120 us, deadline 2 ms
/// (16 transmissions per interval), p* = 0.7, rho = 0.99, 20000 intervals.
struct ControlScenario {
  static constexpr std::size_t kNumLinks = 10;
  static constexpr double kReliability = 0.7;
  static constexpr IntervalIndex kIntervals = 20000;
  [[nodiscard]] static Duration deadline() { return Duration::milliseconds(2); }
};

/// DB-DP parameters used throughout Section VI:
/// f(x) = log(max{1, 100(x+1)}), R = 10.
[[nodiscard]] core::Influence paper_influence();
inline constexpr double kPaperR = 10.0;

// ---- Network builders -------------------------------------------------------

/// Fig. 3/4/5/6 network: fully symmetric, bursty video arrivals
/// (U{1..6} w.p. alpha), reliability 0.7, delivery ratio rho.
[[nodiscard]] net::NetworkConfig video_symmetric(double alpha, double rho, std::uint64_t seed);

/// Fig. 7/8 network: 20 links in two groups of 10.
/// Group 1 (links 0-9): p = 0.5, alpha = 0.5 * alpha_star.
/// Group 2 (links 10-19): p = 0.8, alpha = alpha_star. Both need ratio rho.
[[nodiscard]] net::NetworkConfig video_asymmetric(double alpha_star, double rho,
                                                  std::uint64_t seed);

/// Link ids of the two asymmetric groups.
[[nodiscard]] std::vector<LinkId> asymmetric_group(int group);

/// Fig. 9/10 network: 10 links, Bernoulli(lambda) arrivals, deadline 2 ms.
[[nodiscard]] net::NetworkConfig control_symmetric(double lambda, double rho,
                                                   std::uint64_t seed);

// ---- Interference topologies ------------------------------------------------
//
// The paper's experiments all run on the complete collision domain (the
// Medium's default, equivalent to `phy::InterferenceGraph::complete(n)`).
// These builders cover the partial-interference regimes the refactored
// Medium opens up; attach one with `with_topology`.

/// The textbook hidden-terminal pair: two links whose transmissions destroy
/// each other (both share the receiver's neighborhood) but whose
/// transmitters are out of carrier-sense range. Listen-before-talk never
/// sees the other link, so every temporal overlap collides.
[[nodiscard]] phy::InterferenceGraph hidden_terminal_pair();

/// Generalized hidden terminals for `num_links` links in cells of
/// `cell_size`: every pair of links conflicts (one shared channel at the
/// receivers), but carrier sensing only works within a cell. Cross-cell
/// transmissions are invisible to the backoff engines — with one cell this
/// is exactly the complete graph; with more it scales the hidden-terminal
/// pair up to whole groups.
[[nodiscard]] phy::InterferenceGraph hidden_cells_topology(std::size_t num_links,
                                                           std::size_t cell_size);

/// Two spatially separated cells of `cell_size` links each with
/// `boundary_links` per cell near the border. Links interact (conflict AND
/// sense) within their own cell; the last `boundary_links` of each cell
/// also conflict with and sense the other cell's boundary links. Interior
/// links of different cells are fully independent — the spatial-reuse
/// regime where two transmissions can genuinely succeed at once.
[[nodiscard]] phy::InterferenceGraph two_cell_topology(std::size_t cell_size,
                                                       std::size_t boundary_links);

/// Fully disconnected cells: links interact (conflict AND sense, complete
/// within the cell) only with the other links of their own cell of
/// `cell_size`; cells are independent collision domains. The canonical
/// sharding benchmark topology — the partitioner recovers the cells exactly
/// and the cut sets are empty, so sharded results are byte-identical to the
/// one-cell run by construction.
[[nodiscard]] phy::InterferenceGraph disconnected_cells_topology(std::size_t num_links,
                                                                 std::size_t cell_size);

/// City-scale unit-disk placement: `num_cells` clusters on a widely spaced
/// grid, `links_per_cell` links jittered around each cluster center
/// (deterministic in `seed`). Ranges are chosen so each cluster is one
/// collision domain and clusters never interact — expected O(n)
/// construction via the grid-bucketed sparse builder, usable at 10^5-10^6
/// links where the dense InterferenceGraph cannot be materialized.
[[nodiscard]] phy::SparseTopology city_unit_disk_topology(std::size_t num_cells,
                                                          std::size_t links_per_cell,
                                                          std::uint64_t seed);

/// Chain of hidden-terminal-coupled cells: `num_cells` cells of `cell_size`
/// links, complete (conflict AND sense) within each cell; the LAST link of
/// cell i additionally conflicts with — but cannot sense — the FIRST link
/// of cell i+1. Every cut edge is conflict-only, so the partitioner keeps
/// one cell per clique and the coordinator must arbitrate each boundary
/// pair; this is the canonical topology for measuring adaptive-lookahead
/// round savings (results are bit-identical with the feature on or off).
[[nodiscard]] phy::SparseTopology chain_cells_topology(std::size_t num_cells,
                                                       std::size_t cell_size);

/// Returns `cfg` with the interference topology replaced. The graph's size
/// must match cfg.num_links().
[[nodiscard]] net::NetworkConfig with_topology(net::NetworkConfig cfg,
                                               phy::InterferenceGraph topology);

/// Returns `cfg` with a sparse (adjacency-list) topology attached; requires
/// the sharded engine (cfg.shards >= 1 or cfg.auto_shard).
[[nodiscard]] net::NetworkConfig with_sparse_topology(net::NetworkConfig cfg,
                                                      phy::SparseTopology topology);

// ---- Scheme factories -------------------------------------------------------

/// DB-DP: Algorithm 2 + eq. (14) with the paper's f and R.
[[nodiscard]] mac::SchemeFactory dbdp_factory();

/// DB-DP with explicit parameters (ablations).
[[nodiscard]] mac::SchemeFactory dbdp_factory(core::Influence influence, double r);

/// DB-DP with the Remark 6 multi-pair reordering (faster convergence).
[[nodiscard]] mac::SchemeFactory dbdp_multipair_factory(int max_swap_pairs);

/// DB-DP that LEARNS each link's reliability online from its own ACKs
/// (Section II-A's "learning from past transmissions") instead of being
/// given the oracle p_n.
[[nodiscard]] mac::SchemeFactory dbdp_estimated_p_factory(double initial_estimate = 0.5);

/// DP with fixed coin biases and multi-pair reordering (theory experiments).
[[nodiscard]] mac::SchemeFactory dp_fixed_mu_factory(std::vector<double> mu,
                                                     int max_swap_pairs);

/// DP with fixed coin biases (theory experiments, Proposition 2).
[[nodiscard]] mac::SchemeFactory dp_fixed_mu_factory(std::vector<double> mu);

/// DP with reordering disabled: priorities frozen at the identity
/// permutation — the Fig. 6 starvation experiment.
[[nodiscard]] mac::SchemeFactory dp_static_priority_factory();

/// Centralized LDF (Algorithm 1 with f(x) = x).
[[nodiscard]] mac::SchemeFactory ldf_factory();

/// Centralized ELDF with an explicit debt influence function.
[[nodiscard]] mac::SchemeFactory eldf_factory(core::Influence influence);

/// FCSMA baseline with default discretization.
[[nodiscard]] mac::SchemeFactory fcsma_factory();
[[nodiscard]] mac::SchemeFactory fcsma_factory(mac::FcsmaParams params);

/// 802.11-DCF-style exponential backoff (extension baseline).
[[nodiscard]] mac::SchemeFactory dcf_factory();

}  // namespace rtmac::expfw
