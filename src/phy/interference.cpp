#include "phy/interference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "util/check.hpp"

namespace rtmac::phy {

InterferenceGraph::InterferenceGraph(std::size_t n, std::vector<bool> conflict,
                                     std::vector<bool> sense)
    : n_{n}, conflict_{std::move(conflict)}, sense_{std::move(sense)} {
  RTMAC_ASSERT(n_ >= 1);
  RTMAC_ASSERT(conflict_.size() == n_ * n_ && sense_.size() == n_ * n_);
  finalize();
}

void InterferenceGraph::finalize() {
  for (LinkId a = 0; a < n_; ++a) {
    conflict_[idx(a, a)] = true;
    sense_[idx(a, a)] = true;
    for (LinkId b = 0; b < a; ++b) {
      // Conflict is symmetric by model definition: a collision fails every
      // participant, so either direction listed implies both.
      const bool c = conflict_[idx(a, b)] || conflict_[idx(b, a)];
      conflict_[idx(a, b)] = c;
      conflict_[idx(b, a)] = c;
    }
  }
  sensed_by_.assign(n_, {});
  complete_conflicts_ = true;
  complete_sensing_ = true;
  for (LinkId link = 0; link < n_; ++link) {
    for (LinkId node = 0; node < n_; ++node) {
      if (sense_[idx(node, link)]) sensed_by_[link].push_back(node);
      complete_sensing_ = complete_sensing_ && sense_[idx(node, link)];
      complete_conflicts_ = complete_conflicts_ && conflict_[idx(node, link)];
    }
  }
}

InterferenceGraph InterferenceGraph::complete(std::size_t num_links) {
  RTMAC_REQUIRE(num_links >= 1);
  return InterferenceGraph{num_links, std::vector<bool>(num_links * num_links, true),
                           std::vector<bool>(num_links * num_links, true)};
}

InterferenceGraph InterferenceGraph::from_lists(
    std::size_t num_links, const std::vector<std::vector<LinkId>>& conflict_lists,
    const std::vector<std::vector<LinkId>>& sense_lists) {
  RTMAC_REQUIRE(num_links >= 1);
  RTMAC_REQUIRE(conflict_lists.size() == num_links && sense_lists.size() == num_links);
  std::vector<bool> conflict(num_links * num_links, false);
  std::vector<bool> sense(num_links * num_links, false);
  for (LinkId a = 0; a < num_links; ++a) {
    for (LinkId b : conflict_lists[a]) {
      RTMAC_REQUIRE(b < num_links, "conflict list names an unknown link");
      conflict[static_cast<std::size_t>(a) * num_links + b] = true;
    }
    for (LinkId l : sense_lists[a]) {
      RTMAC_REQUIRE(l < num_links, "sense list names an unknown link");
      sense[static_cast<std::size_t>(a) * num_links + l] = true;
    }
  }
  return InterferenceGraph{num_links, std::move(conflict), std::move(sense)};
}

namespace {

double dist2(InterferenceGraph::Point a, InterferenceGraph::Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

}  // namespace

InterferenceGraph InterferenceGraph::unit_disk(const std::vector<LinkPlacement>& links,
                                               double interference_range,
                                               double sense_range) {
  const std::size_t n = links.size();
  RTMAC_REQUIRE(n >= 1);
  RTMAC_REQUIRE(interference_range >= 0.0 && sense_range >= 0.0);
  const double ir2 = interference_range * interference_range;
  const double sr2 = sense_range * sense_range;
  std::vector<bool> conflict(n * n, false);
  std::vector<bool> sense(n * n, false);
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b = 0; b < n; ++b) {
      // A transmitter close enough to the other link's receiver corrupts it.
      conflict[static_cast<std::size_t>(a) * n + b] =
          dist2(links[a].tx, links[b].rx) <= ir2 || dist2(links[b].tx, links[a].rx) <= ir2;
      sense[static_cast<std::size_t>(a) * n + b] = dist2(links[a].tx, links[b].tx) <= sr2;
    }
  }
  return InterferenceGraph{n, std::move(conflict), std::move(sense)};
}

InterferenceGraph InterferenceGraph::induced(std::span<const LinkId> links) const {
  const std::size_t k = links.size();
  RTMAC_REQUIRE(k >= 1, "induced subgraph needs at least one link");
  std::vector<bool> conflict(k * k, false);
  std::vector<bool> sense(k * k, false);
  for (std::size_t a = 0; a < k; ++a) {
    RTMAC_REQUIRE(links[a] < n_, "induced subgraph names an unknown link");
    for (std::size_t b = 0; b < k; ++b) {
      conflict[a * k + b] = conflicts(links[a], links[b]);
      sense[a * k + b] = senses(links[a], links[b]);
    }
  }
  return InterferenceGraph{k, std::move(conflict), std::move(sense)};
}

namespace {

/// Packs a 2D grid coordinate into a hashable key.
std::int64_t grid_key(std::int64_t ix, std::int64_t iy) {
  return (ix << 32) ^ (iy & 0xffffffff);
}

std::int64_t grid_floor(double v, double cell) {
  return static_cast<std::int64_t>(std::floor(v / cell));
}

}  // namespace

SparseTopology sparse_unit_disk(const std::vector<InterferenceGraph::LinkPlacement>& links,
                                double interference_range, double sense_range) {
  const std::size_t n = links.size();
  RTMAC_REQUIRE(n >= 1);
  RTMAC_REQUIRE(interference_range >= 0.0 && sense_range >= 0.0);
  const double ir2 = interference_range * interference_range;
  const double sr2 = sense_range * sense_range;

  // Neighbor search radius: two links can only be related when their
  // transmitters are within max(sense_range, interference_range + longest
  // tx->rx extent) of each other, so bucketing transmitters on a grid of
  // that pitch makes a 3x3 neighborhood scan exhaustive.
  double max_extent2 = 0.0;
  for (const auto& link : links) {
    max_extent2 = std::max(max_extent2, dist2(link.tx, link.rx));
  }
  const double reach =
      std::max(sense_range, interference_range + std::sqrt(max_extent2));
  const double pitch = std::max(reach, 1e-9);

  std::unordered_map<std::int64_t, std::vector<LinkId>> buckets;
  buckets.reserve(n);
  for (LinkId a = 0; a < n; ++a) {
    buckets[grid_key(grid_floor(links[a].tx.x, pitch), grid_floor(links[a].tx.y, pitch))]
        .push_back(a);
  }

  SparseTopology out;
  out.num_links = n;
  out.conflict.resize(n);
  out.sense.resize(n);
  for (LinkId a = 0; a < n; ++a) {
    const std::int64_t ix = grid_floor(links[a].tx.x, pitch);
    const std::int64_t iy = grid_floor(links[a].tx.y, pitch);
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const auto it = buckets.find(grid_key(ix + dx, iy + dy));
        if (it == buckets.end()) continue;
        for (LinkId b : it->second) {
          if (b == a) continue;
          if (dist2(links[a].tx, links[b].rx) <= ir2 || dist2(links[b].tx, links[a].rx) <= ir2) {
            // Record each undirected conflict once (from the lower id) and
            // mirror it, keeping the lists exactly symmetric.
            if (a < b) {
              out.conflict[a].push_back(b);
              out.conflict[b].push_back(a);
            }
          }
          if (dist2(links[a].tx, links[b].tx) <= sr2) out.sense[a].push_back(b);
        }
      }
    }
  }
  for (auto& list : out.conflict) std::sort(list.begin(), list.end());
  for (auto& list : out.sense) std::sort(list.begin(), list.end());
  return out;
}

InterferenceGraph induced_subgraph(const SparseTopology& topology,
                                   std::span<const LinkId> links) {
  const std::size_t k = links.size();
  RTMAC_REQUIRE(k >= 1, "induced subgraph needs at least one link");
  const auto local_of = [&](LinkId global) -> std::size_t {
    const auto it = std::lower_bound(links.begin(), links.end(), global);
    return (it != links.end() && *it == global)
               ? static_cast<std::size_t>(it - links.begin())
               : k;
  };
  std::vector<bool> conflict(k * k, false);
  std::vector<bool> sense(k * k, false);
  for (std::size_t a = 0; a < k; ++a) {
    RTMAC_REQUIRE(links[a] < topology.num_links, "induced subgraph names an unknown link");
    for (LinkId partner : topology.conflict[links[a]]) {
      const std::size_t b = local_of(partner);
      if (b < k) conflict[a * k + b] = true;
    }
    for (LinkId heard : topology.sense[links[a]]) {
      const std::size_t b = local_of(heard);
      if (b < k) sense[a * k + b] = true;
    }
  }
  return InterferenceGraph{k, std::move(conflict), std::move(sense)};
}

}  // namespace rtmac::phy
