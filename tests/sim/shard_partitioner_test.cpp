// Property tests for the conflict-graph partitioner (DESIGN §4i): every
// cross-cell relation must land in the cut sets, plans must be bitwise
// deterministic, and complete graphs must never be split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/shard_partitioner.hpp"
#include "util/rng.hpp"

namespace rtmac::sim {
namespace {

// ---- helpers ----------------------------------------------------------------

AdjacencyLists complete_adjacency(std::size_t n) {
  AdjacencyLists out(n);
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b = 0; b < n; ++b) {
      if (a != b) out[a].push_back(b);
    }
  }
  return out;
}

/// Random symmetric conflict graph + random directed sense relation,
/// deterministic in `seed`.
struct RandomTopology {
  AdjacencyLists conflict;
  AdjacencyLists sense;
};

RandomTopology random_topology(std::size_t n, double conflict_p, double sense_p,
                               std::uint64_t seed) {
  Rng rng{seed, /*stream_id=*/0x70707ULL};
  RandomTopology t{AdjacencyLists(n), AdjacencyLists(n)};
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b = a + 1; b < n; ++b) {
      if (rng.next_double() < conflict_p) {
        t.conflict[a].push_back(b);
        t.conflict[b].push_back(a);
      }
    }
  }
  for (LinkId l = 0; l < n; ++l) {
    for (LinkId s = 0; s < n; ++s) {
      if (l != s && rng.next_double() < sense_p) t.sense[l].push_back(s);
    }
  }
  return t;
}

bool plans_equal(const ShardPlan& a, const ShardPlan& b) {
  return a.cell_of == b.cell_of && a.cells == b.cells && a.cut_conflicts == b.cut_conflicts &&
         a.cut_senses == b.cut_senses && a.groups == b.groups;
}

/// The core partition invariants, checked for any plan:
///  - cells partition {0..n-1}, each ascending, cell_of consistent;
///  - every conflict edge is intra-cell or in cut_conflicts (exactly);
///  - every sense relation is intra-cell or in cut_senses (exactly);
///  - groups cover every cell exactly once.
void check_invariants(const ShardPlan& plan, const AdjacencyLists& conflict,
                      const AdjacencyLists& sense) {
  const std::size_t n = conflict.size();
  ASSERT_EQ(plan.num_links(), n);

  std::vector<int> covered(n, 0);
  for (std::uint32_t c = 0; c < plan.cells.size(); ++c) {
    ASSERT_FALSE(plan.cells[c].empty());
    ASSERT_TRUE(std::is_sorted(plan.cells[c].begin(), plan.cells[c].end()));
    for (const LinkId v : plan.cells[c]) {
      ASSERT_LT(v, n);
      ++covered[v];
      EXPECT_EQ(plan.cell_of[v], c);
    }
  }
  for (std::size_t v = 0; v < n; ++v) EXPECT_EQ(covered[v], 1) << "link " << v;

  // Cut sets: sorted, and exactly the cross-cell relations.
  ASSERT_TRUE(std::is_sorted(plan.cut_conflicts.begin(), plan.cut_conflicts.end(),
                             [](const CutEdge& x, const CutEdge& y) {
                               return x.a != y.a ? x.a < y.a : x.b < y.b;
                             }));
  const auto in_cut_conflicts = [&](LinkId a, LinkId b) {
    const CutEdge e{std::min(a, b), std::max(a, b)};
    return std::find(plan.cut_conflicts.begin(), plan.cut_conflicts.end(), e) !=
           plan.cut_conflicts.end();
  };
  for (LinkId a = 0; a < n; ++a) {
    for (const LinkId b : conflict[a]) {
      if (a == b) continue;
      const bool cross = plan.cell_of[a] != plan.cell_of[b];
      EXPECT_EQ(in_cut_conflicts(a, b), cross) << "conflict " << a << "-" << b;
    }
  }
  for (const CutEdge& e : plan.cut_conflicts) {
    EXPECT_LT(e.a, e.b);
    EXPECT_NE(plan.cell_of[e.a], plan.cell_of[e.b]);
  }

  const auto in_cut_senses = [&](LinkId listener, LinkId speaker) {
    const CutSense s{listener, speaker};
    return std::find(plan.cut_senses.begin(), plan.cut_senses.end(), s) !=
           plan.cut_senses.end();
  };
  for (LinkId listener = 0; listener < sense.size(); ++listener) {
    for (const LinkId speaker : sense[listener]) {
      if (listener == speaker) continue;
      const bool cross = plan.cell_of[listener] != plan.cell_of[speaker];
      EXPECT_EQ(in_cut_senses(listener, speaker), cross)
          << "sense " << listener << "<-" << speaker;
    }
  }
  for (const CutSense& s : plan.cut_senses) {
    EXPECT_NE(plan.cell_of[s.listener], plan.cell_of[s.speaker]);
  }

  std::vector<int> grouped(plan.cells.size(), 0);
  for (const auto& group : plan.groups) {
    for (const std::uint32_t c : group) {
      ASSERT_LT(c, plan.cells.size());
      ++grouped[c];
    }
  }
  for (std::size_t c = 0; c < plan.cells.size(); ++c) EXPECT_EQ(grouped[c], 1) << "cell " << c;
}

// ---- properties -------------------------------------------------------------

TEST(ShardPartitionerTest, CompleteGraphsAlwaysYieldOneCell) {
  for (const std::size_t n : {1UL, 2UL, 5UL, 17UL}) {
    for (const std::size_t target : {1UL, 2UL, 4UL, 16UL}) {
      const auto plan = partition_topology(complete_adjacency(n), complete_adjacency(n), target);
      EXPECT_EQ(plan.cells.size(), 1U) << "n=" << n << " target=" << target;
      EXPECT_TRUE(plan.trivial());
    }
  }
}

TEST(ShardPartitionerTest, DisconnectedCliquesBecomeTheirOwnCutFreeCells) {
  // Four disjoint cliques of 3: cells must be exactly the cliques, no cuts,
  // regardless of how much parallelism is requested (cliques never split).
  const std::size_t n = 12;
  AdjacencyLists conflict(n);
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b = 0; b < n; ++b) {
      if (a != b && a / 3 == b / 3) conflict[a].push_back(b);
    }
  }
  for (const std::size_t target : {1UL, 2UL, 4UL, 8UL}) {
    const auto plan = partition_topology(conflict, conflict, target);
    ASSERT_EQ(plan.cells.size(), 4U);
    EXPECT_TRUE(plan.cut_conflicts.empty());
    EXPECT_TRUE(plan.cut_senses.empty());
    for (std::uint32_t c = 0; c < 4; ++c) {
      EXPECT_EQ(plan.cells[c], (std::vector<LinkId>{3 * c, 3 * c + 1, 3 * c + 2}));
    }
    EXPECT_EQ(plan.groups.size(), std::min<std::size_t>(target, 4));
    check_invariants(plan, conflict, conflict);
  }
}

TEST(ShardPartitionerTest, ConnectedNonCliqueIsBisectedWithAnExplicitCut) {
  // A path 0-1-2-3: connected, not a clique. Two shards must split it and
  // report the crossing edge.
  AdjacencyLists conflict{{1}, {0, 2}, {1, 3}, {2}};
  const AdjacencyLists sense(4);
  const auto plan = partition_topology(conflict, sense, 2);
  ASSERT_EQ(plan.cells.size(), 2U);
  EXPECT_FALSE(plan.cut_conflicts.empty());
  check_invariants(plan, conflict, sense);
}

TEST(ShardPartitionerTest, RandomTopologiesSatisfyThePartitionInvariants) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto t = random_topology(40, 0.06, 0.04, seed);
    for (const std::size_t target : {1UL, 2UL, 3UL, 7UL}) {
      const auto plan = partition_topology(t.conflict, t.sense, target);
      check_invariants(plan, t.conflict, t.sense);
    }
  }
}

TEST(ShardPartitionerTest, PlansAreDeterministicAcrossRuns) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto t = random_topology(32, 0.08, 0.05, seed);
    const auto a = partition_topology(t.conflict, t.sense, 4);
    const auto b = partition_topology(t.conflict, t.sense, 4);
    EXPECT_TRUE(plans_equal(a, b)) << "seed " << seed;
  }
}

TEST(ShardPartitionerTest, InputNormalizationDoesNotChangeThePlan) {
  // Unsorted, duplicated neighbor lists and one-sided conflict entries must
  // normalize to the same plan as the clean form.
  AdjacencyLists clean{{1}, {0, 2}, {1, 3}, {2}};
  AdjacencyLists messy{{1, 1}, {2, 0, 2}, {3, 1}, {}};  // (2,3) listed one-sided
  const AdjacencyLists sense(4);
  EXPECT_TRUE(plans_equal(partition_topology(clean, sense, 2),
                          partition_topology(messy, sense, 2)));
}

TEST(ShardPartitionerTest, SenseOnlyCouplingKeepsLinksInOneCell) {
  // No conflicts at all, but 0 hears 1: connectivity is the union relation,
  // so both land in one cell and a split would cut the sense edge.
  AdjacencyLists conflict(2);
  AdjacencyLists sense{{1}, {}};
  const auto plan = partition_topology(conflict, sense, 1);
  ASSERT_EQ(plan.cells.size(), 1U);
  EXPECT_TRUE(plan.trivial());
}

TEST(ShardPartitionerTest, LanesFoldWholeGroupsGreedilyByLinkCount) {
  // Six disjoint cliques of sizes 5, 1, 4, 2, 3, 3: one group per cell.
  const std::vector<std::size_t> sizes = {5, 1, 4, 2, 3, 3};
  std::size_t n = 0;
  for (const std::size_t s : sizes) n += s;
  AdjacencyLists conflict(n);
  for (std::size_t first = 0, c = 0; c < sizes.size(); first += sizes[c], ++c) {
    for (std::size_t a = first; a < first + sizes[c]; ++a) {
      for (std::size_t b = first; b < first + sizes[c]; ++b) {
        if (a != b) conflict[a].push_back(static_cast<LinkId>(b));
      }
    }
  }
  const auto plan = partition_topology(conflict, AdjacencyLists(n), sizes.size());
  ASSERT_EQ(plan.groups.size(), sizes.size());

  // Largest first onto the least-loaded lane: 5->0, 4->1, 3->1, 3->0, 2->1,
  // 1->0 (ties toward the lower cell and lane), so both lanes carry 9 links.
  const auto two = plan.lanes(2);
  ASSERT_EQ(two.size(), 2U);
  EXPECT_EQ(two[0], (std::vector<std::uint32_t>{0, 1, 5}));
  EXPECT_EQ(two[1], (std::vector<std::uint32_t>{2, 3, 4}));

  // One lane runs everything; one lane per group reproduces the groups.
  EXPECT_EQ(plan.lanes(1), (std::vector<std::vector<std::uint32_t>>{{0, 1, 2, 3, 4, 5}}));
  EXPECT_EQ(plan.lanes(plan.groups.size()), plan.groups);

  // A group never splits: fold a 3-group plan of the same cells onto 2 lanes.
  const auto grouped = partition_topology(conflict, AdjacencyLists(n), 3);
  ASSERT_EQ(grouped.groups.size(), 3U);
  const auto folded = grouped.lanes(2);
  for (const auto& group : grouped.groups) {
    const auto holds = [&group](const std::vector<std::uint32_t>& lane) {
      return std::includes(lane.begin(), lane.end(), group.begin(), group.end());
    };
    EXPECT_EQ(std::count_if(folded.begin(), folded.end(), holds), 1);
  }
  EXPECT_EQ(folded[0].size() + folded[1].size(), sizes.size());
}

}  // namespace
}  // namespace rtmac::sim
