#include "sim/shard_partitioner.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "util/check.hpp"

namespace rtmac::sim {
namespace {

/// Greedy balanced packing: items descending by weight (ties toward the
/// lower index) onto the least-loaded bin (ties toward the lower bin).
/// Returns each bin's item indices, ascending.
std::vector<std::vector<std::uint32_t>> balance(const std::vector<std::size_t>& weights,
                                                std::size_t bins) {
  std::vector<std::vector<std::uint32_t>> out(bins);
  if (bins == 0) return out;
  std::vector<std::uint32_t> by_weight(weights.size());
  std::iota(by_weight.begin(), by_weight.end(), std::uint32_t{0});
  std::sort(by_weight.begin(), by_weight.end(), [&weights](std::uint32_t x, std::uint32_t y) {
    return weights[x] != weights[y] ? weights[x] > weights[y] : x < y;
  });
  std::vector<std::size_t> load(bins, 0);
  for (const std::uint32_t item : by_weight) {
    std::size_t b = 0;
    for (std::size_t i = 1; i < bins; ++i) {
      if (load[i] < load[b]) b = i;
    }
    out[b].push_back(item);
    load[b] += weights[item];
  }
  for (auto& bin : out) std::sort(bin.begin(), bin.end());
  return out;
}

/// Sorted, deduplicated, self-loop-free union of the conflict and sense
/// relations, symmetrized (connectivity is undirected even though sensing
/// is not).
AdjacencyLists build_union(const AdjacencyLists& conflict, const AdjacencyLists& sense) {
  const std::size_t n = conflict.size();
  AdjacencyLists u(n);
  auto add = [&](LinkId a, LinkId b) {
    if (a == b) return;
    u[a].push_back(b);
    u[b].push_back(a);
  };
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b : conflict[a]) add(a, b);
  }
  for (LinkId a = 0; a < sense.size(); ++a) {
    for (LinkId b : sense[a]) add(a, b);
  }
  for (auto& list : u) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return u;
}

/// Connected components of `u`, each as an ascending link list, ordered by
/// smallest member id. Iterative BFS with an explicit frontier; neighbor
/// lists are already sorted, so the visit order is fully determined.
std::vector<std::vector<LinkId>> connected_components(const AdjacencyLists& u) {
  const std::size_t n = u.size();
  std::vector<std::vector<LinkId>> comps;
  std::vector<bool> seen(n, false);
  std::vector<LinkId> frontier;
  for (LinkId root = 0; root < n; ++root) {
    if (seen[root]) continue;
    std::vector<LinkId> comp;
    frontier.assign(1, root);
    seen[root] = true;
    while (!frontier.empty()) {
      const LinkId v = frontier.back();
      frontier.pop_back();
      comp.push_back(v);
      for (LinkId w : u[v]) {
        if (!seen[w]) {
          seen[w] = true;
          frontier.push_back(w);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    comps.push_back(std::move(comp));
  }
  return comps;
}

/// True when every pair inside `cell` is adjacent in `u` (a clique). Clique
/// cells are never split: cutting a complete conflict graph would put every
/// transmission on the cut and serialize the shards anyway.
bool is_clique(const std::vector<LinkId>& cell, const AdjacencyLists& u) {
  if (cell.size() <= 1) return true;
  // Adjacency lists are sorted; membership by binary search keeps this
  // O(k * deg * log). Cells are small compared to the whole graph.
  for (LinkId v : cell) {
    const auto& nb = u[v];
    std::size_t inside = 0;
    for (LinkId w : cell) {
      if (w == v) continue;
      if (std::binary_search(nb.begin(), nb.end(), w)) ++inside;
    }
    if (inside + 1 < cell.size()) return false;
  }
  return true;
}

/// Sense atoms: the connected components of the symmetrized sense relation
/// (self loops ignored). Every atom lies inside one union component, and
/// bisection keeps it whole, so no cell boundary ever cuts a sense relation.
struct SenseAtoms {
  std::vector<std::uint32_t> atom_of;      ///< link -> index into `links`
  std::vector<std::vector<LinkId>> links;  ///< ascending, by smallest member
};

SenseAtoms sense_atoms(const AdjacencyLists& sense, std::size_t n) {
  AdjacencyLists symmetric(n);
  for (LinkId a = 0; a < sense.size(); ++a) {
    for (LinkId b : sense[a]) {
      if (a == b) continue;
      symmetric[a].push_back(b);
      symmetric[b].push_back(a);
    }
  }
  SenseAtoms atoms;
  atoms.links = connected_components(symmetric);
  atoms.atom_of.assign(n, 0);
  for (std::uint32_t i = 0; i < atoms.links.size(); ++i) {
    for (LinkId v : atoms.links[i]) atoms.atom_of[v] = i;
  }
  return atoms;
}

/// BFS order over `cell` (ascending-id tie-breaks, restarting from the
/// lowest unvisited id if the cell is internally disconnected), regrouped
/// atom by atom (each atom where its first link appears), then cut at the
/// atom boundary nearest ceil(m/2) (ties toward the lower). This is the
/// "balanced edge-cut" heuristic: BFS halves keep geometrically-near links
/// together, so the cut crosses the narrow waist of the component. When no
/// atom straddles the BFS midpoint, the halves are the plain BFS halves.
/// Precondition: `cell` holds at least two atoms.
void bfs_bisect(const std::vector<LinkId>& cell, const AdjacencyLists& u, const SenseAtoms& atoms,
                std::vector<LinkId>& first, std::vector<LinkId>& second) {
  std::vector<LinkId> order;
  order.reserve(cell.size());
  const LinkId max_id = cell.back();
  std::vector<std::uint8_t> in_cell_flags(static_cast<std::size_t>(max_id) + 1, 0);
  for (LinkId v : cell) in_cell_flags[v] = 1;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(max_id) + 1, 0);
  std::vector<LinkId> queue;
  std::size_t head = 0;
  for (LinkId root : cell) {
    if (seen[root]) continue;
    seen[root] = 1;
    queue.push_back(root);
    while (head < queue.size()) {
      const LinkId v = queue[head++];
      order.push_back(v);
      for (LinkId w : u[v]) {
        if (w <= max_id && in_cell_flags[w] && !seen[w]) {
          seen[w] = 1;
          queue.push_back(w);
        }
      }
    }
  }
  RTMAC_ASSERT(order.size() == cell.size(), "BFS bisection lost links");

  // Regroup atom by atom; `seen` is cleared as each atom is emitted.
  const std::size_t half = (order.size() + 1) / 2;
  const auto distance = [half](std::size_t at) { return at > half ? at - half : half - at; };
  std::size_t cut = 0;
  std::vector<LinkId> grouped;
  grouped.reserve(order.size());
  for (LinkId v : order) {
    if (!seen[v]) continue;  // emitted with its atom
    for (LinkId w : atoms.links[atoms.atom_of[v]]) {
      seen[w] = 0;
      grouped.push_back(w);
    }
    if (grouped.size() < order.size() && (cut == 0 || distance(grouped.size()) < distance(cut))) {
      cut = grouped.size();
    }
  }
  RTMAC_ASSERT(grouped.size() == cell.size() && cut > 0, "bisection split an atom or found none");
  first.assign(grouped.begin(), grouped.begin() + static_cast<std::ptrdiff_t>(cut));
  second.assign(grouped.begin() + static_cast<std::ptrdiff_t>(cut), grouped.end());
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
}

}  // namespace

ShardPlan partition_topology(const AdjacencyLists& conflict, const AdjacencyLists& sense,
                             std::size_t target_shards) {
  RTMAC_REQUIRE(target_shards >= 1, "target_shards must be >= 1");
  RTMAC_REQUIRE(sense.size() == conflict.size() || sense.empty(),
                "sense adjacency size mismatch");
  const std::size_t n = conflict.size();

  const AdjacencyLists u = build_union(conflict, sense.empty() ? AdjacencyLists(n) : sense);
  std::vector<std::vector<LinkId>> cells = connected_components(u);

  // Bisect the largest splittable cell while more parallelism is wanted: a
  // clique or a single sense atom stays whole. Ties break toward the
  // earliest cell, so the sequence of splits — and therefore the whole
  // plan — is deterministic.
  const SenseAtoms atoms = cells.size() < target_shards ? sense_atoms(sense, n) : SenseAtoms{};
  const auto splittable = [&atoms, &u](const std::vector<LinkId>& cell) {
    return atoms.links[atoms.atom_of[cell.front()]].size() < cell.size() && !is_clique(cell, u);
  };
  while (cells.size() < target_shards) {
    std::size_t pick = cells.size();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (!splittable(cells[c])) continue;
      if (pick == cells.size() || cells[c].size() > cells[pick].size()) pick = c;
    }
    if (pick == cells.size()) break;  // nothing splittable left
    std::vector<LinkId> first;
    std::vector<LinkId> second;
    bfs_bisect(cells[pick], u, atoms, first, second);
    cells[pick] = std::move(first);
    cells.push_back(std::move(second));
  }

  // Canonical cell order: ascending smallest member id.
  std::sort(cells.begin(), cells.end(),
            [](const std::vector<LinkId>& a, const std::vector<LinkId>& b) {
              return a.front() < b.front();
            });

  ShardPlan plan;
  plan.cells = std::move(cells);
  plan.cell_of.assign(n, 0);
  for (std::uint32_t c = 0; c < plan.cells.size(); ++c) {
    for (LinkId v : plan.cells[c]) plan.cell_of[v] = c;
  }

  // The conflict cut straight off the input relation.
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b : conflict[a]) {
      if (a < b && plan.cell_of[a] != plan.cell_of[b]) plan.cut_conflicts.push_back({a, b});
    }
  }
  std::sort(plan.cut_conflicts.begin(), plan.cut_conflicts.end(),
            [](const CutEdge& x, const CutEdge& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  plan.cut_conflicts.erase(std::unique(plan.cut_conflicts.begin(), plan.cut_conflicts.end()),
                           plan.cut_conflicts.end());

  // Greedy balanced grouping of the cells by link count.
  std::vector<std::size_t> cell_sizes(plan.cells.size());
  for (std::size_t c = 0; c < cell_sizes.size(); ++c) cell_sizes[c] = plan.cells[c].size();
  plan.groups = balance(cell_sizes, std::min(target_shards, plan.cells.size()));
  return plan;
}

std::vector<std::vector<std::uint32_t>> ShardPlan::lanes(std::size_t count) const {
  RTMAC_REQUIRE(count >= 1 && count <= groups.size(), "lane count must lie in [1, groups]");
  std::vector<std::size_t> group_sizes(groups.size(), 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const std::uint32_t c : groups[g]) group_sizes[g] += cells[c].size();
  }
  std::vector<std::vector<std::uint32_t>> out(count);
  const std::vector<std::vector<std::uint32_t>> lane_groups = balance(group_sizes, count);
  for (std::size_t l = 0; l < count; ++l) {
    for (const std::uint32_t g : lane_groups[l]) {
      out[l].insert(out[l].end(), groups[g].begin(), groups[g].end());
    }
    std::sort(out[l].begin(), out[l].end());
  }
  return out;
}

ShardPlan ShardPlan::single_cell(std::size_t num_links) {
  ShardPlan plan;
  plan.cell_of.assign(num_links, 0);
  plan.cells.emplace_back(num_links);
  std::iota(plan.cells[0].begin(), plan.cells[0].end(), LinkId{0});
  plan.groups = {{0}};
  return plan;
}

}  // namespace rtmac::sim
