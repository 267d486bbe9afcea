// Pluggable interference topology: which links collide and who hears whom.
//
// The paper's channel (Section II-A) is one fully-interfering collision
// domain: every overlap collides and every device senses every busy/idle
// transition. That is only one point in the space this class spans. An
// InterferenceGraph separates the two relations that a single-cell model
// conflates:
//
//   * conflict(a, b)  — overlapping transmissions on links a and b destroy
//     each other (interference at the receivers). Symmetric by model
//     definition: a collision fails every participant.
//   * senses(n, l)    — the transmitter of link n can carrier-sense
//     activity on link l. Not necessarily symmetric (asymmetric transmit
//     powers), and crucially NOT implied by conflict: a pair that
//     conflicts without sensing is a classic hidden terminal, where
//     listen-before-talk silently fails.
//
// The complete graph reproduces the paper's model exactly; the other
// builders open the partial-interference regime (hidden terminals,
// multi-cell spatial reuse) that the complete-graph assumption makes
// structurally unreachable.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace rtmac::phy {

struct SparseTopology;

/// Immutable, copyable value type. Self-relations are forced: a link always
/// conflicts with itself (two overlapping transmissions on one link fail)
/// and always senses its own transmissions.
class InterferenceGraph {
 public:
  /// 2D placement of one link's endpoints for the unit-disk builder.
  struct Point {
    double x = 0.0;
    double y = 0.0;
  };
  struct LinkPlacement {
    Point tx;  ///< transmitter position
    Point rx;  ///< receiver position
  };

  /// The paper's Section II-A channel: everyone conflicts with and senses
  /// everyone. Precondition: num_links >= 1.
  [[nodiscard]] static InterferenceGraph complete(std::size_t num_links);

  /// Explicit conflict/sense lists. `conflict_lists[a]` names the links
  /// whose overlapping transmissions destroy a's (symmetrized: listing b
  /// under a conflicts both directions). `sense_lists[n]` names the links
  /// whose activity link n's transmitter can hear (taken as given, so
  /// asymmetric sensing is expressible). Self-entries are implied and need
  /// not be listed. Out-of-range ids abort in debug builds.
  [[nodiscard]] static InterferenceGraph from_lists(
      std::size_t num_links, const std::vector<std::vector<LinkId>>& conflict_lists,
      const std::vector<std::vector<LinkId>>& sense_lists);

  /// Geometric builder: links conflict when either transmitter lies within
  /// `interference_range` of the other link's receiver; link n senses link l
  /// when their transmitters are within `sense_range` of each other.
  /// Distances compare inclusively (<= range).
  [[nodiscard]] static InterferenceGraph unit_disk(const std::vector<LinkPlacement>& links,
                                                   double interference_range,
                                                   double sense_range);

  [[nodiscard]] std::size_t num_links() const { return n_; }

  /// Do overlapping transmissions on a and b collide? Symmetric.
  [[nodiscard]] bool conflicts(LinkId a, LinkId b) const { return conflict_[idx(a, b)]; }

  /// Can link `node`'s transmitter hear activity on link `link`?
  [[nodiscard]] bool senses(LinkId node, LinkId link) const { return sense_[idx(node, link)]; }

  /// All nodes whose sense view includes `link` (always contains `link`
  /// itself), ascending. The Medium iterates this on every transmission
  /// start/end, so it is precomputed.
  [[nodiscard]] const std::vector<LinkId>& sensed_by(LinkId link) const {
    return sensed_by_[link];
  }

  /// Every pair of links conflicts (the paper's collision rule).
  [[nodiscard]] bool complete_conflicts() const { return complete_conflicts_; }
  /// Every node senses every link (the paper's carrier-sense rule). The DP
  /// protocol's collision-freedom guarantee holds exactly under this flag.
  [[nodiscard]] bool complete_sensing() const { return complete_sensing_; }
  /// Both relations complete: byte-identical to the pre-topology Medium.
  [[nodiscard]] bool is_complete() const { return complete_conflicts_ && complete_sensing_; }

  /// Dense subgraph induced by `links` (ascending global ids). Its
  /// completeness flags describe those links only: a shard cell never hears
  /// another cell (the partitioner cuts no sense relation), so a clique
  /// cell's every per-node view really is the cell's one global view, and
  /// the single-view sensing and shared-clock batch MAC paths are exact even
  /// when the cell has cut conflict edges (their outcomes are settled by the
  /// cut resolver, not by sensing). Whether the cell is also
  /// INTERFERENCE-CLOSED (no cut conflict — the precondition of the burst
  /// path) is settled by the shard Medium (phy::Medium::interference_closed()).
  [[nodiscard]] InterferenceGraph induced(std::span<const LinkId> links) const;

 private:
  friend InterferenceGraph induced_subgraph(const SparseTopology& topology,
                                            std::span<const LinkId> links);

  InterferenceGraph(std::size_t n, std::vector<bool> conflict, std::vector<bool> sense);

  [[nodiscard]] std::size_t idx(LinkId a, LinkId b) const {
    return static_cast<std::size_t>(a) * n_ + b;
  }
  void finalize();  ///< force self-relations, build sensed_by_, set flags

  std::size_t n_ = 0;
  std::vector<bool> conflict_;  ///< n x n, symmetric, diagonal true
  std::vector<bool> sense_;     ///< n x n, diagonal true
  std::vector<std::vector<LinkId>> sensed_by_;
  bool complete_conflicts_ = false;
  bool complete_sensing_ = false;
};

/// Adjacency-list interference topology for city-scale networks. The dense
/// InterferenceGraph stores two n x n matrices, which is fine up to a few
/// thousand links and hopeless at 10^5-10^6; sharded execution builds small
/// dense subgraphs per cell from this sparse form instead. Self-relations
/// are implicit (never listed).
struct SparseTopology {
  std::size_t num_links = 0;
  /// conflict[a] = links whose overlapping transmissions destroy a's
  /// (symmetric: b appears under a iff a appears under b; ascending).
  std::vector<std::vector<LinkId>> conflict;
  /// sense[n] = links whose activity link n's transmitter hears (directed;
  /// ascending).
  std::vector<std::vector<LinkId>> sense;
};

/// Geometric sparse builder with the same semantics as
/// InterferenceGraph::unit_disk, but grid-bucketed so construction is
/// expected O(n) for bounded-density placements instead of O(n^2).
[[nodiscard]] SparseTopology sparse_unit_disk(
    const std::vector<InterferenceGraph::LinkPlacement>& links, double interference_range,
    double sense_range);

/// Dense subgraph of a sparse topology induced by `links` (ascending global
/// ids); completeness flags as for InterferenceGraph::induced.
[[nodiscard]] InterferenceGraph induced_subgraph(const SparseTopology& topology,
                                                 std::span<const LinkId> links);

}  // namespace rtmac::phy
