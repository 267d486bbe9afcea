// Full-stack interference-topology tests: NetworkConfig -> Network ->
// Medium -> MAC schemes running on partial conflict graphs.
#include <gtest/gtest.h>

#include <string>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "net/network_config.hpp"

namespace rtmac::net {
namespace {

using expfw::control_symmetric;
using expfw::hidden_cells_topology;
using expfw::with_topology;

TEST(TopologyNetworkTest, ConfigValidatesTopologySize) {
  auto cfg = control_symmetric(0.8, 0.99, 7);  // 10 links
  cfg.topology = phy::InterferenceGraph::complete(3);
  std::string error;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("topology"), std::string::npos);
  cfg.topology = phy::InterferenceGraph::complete(10);
  EXPECT_TRUE(cfg.validate(&error));
}

TEST(TopologyNetworkTest, CloneCarriesTheTopology) {
  const auto cfg =
      with_topology(control_symmetric(0.8, 0.99, 7), hidden_cells_topology(10, 5));
  const auto copy = cfg.clone();
  ASSERT_TRUE(copy.topology.has_value());
  EXPECT_FALSE(copy.topology->complete_sensing());
  EXPECT_TRUE(copy.topology->complete_conflicts());
}

TEST(TopologyNetworkTest, NetworkWithoutTopologyUsesCompleteGraph) {
  Network network{control_symmetric(0.8, 0.99, 7), expfw::dbdp_factory()};
  EXPECT_TRUE(network.cell_medium(0).topology().is_complete());
  network.run(50);
  // The paper's invariant: DP never collides under complete sensing.
  EXPECT_EQ(network.medium_counters().collisions, 0u);
}

TEST(TopologyNetworkTest, DbDpCollidesUnderHiddenCells) {
  Network network{
      with_topology(control_symmetric(0.8, 0.99, 7), hidden_cells_topology(10, 5)),
      expfw::dbdp_factory()};
  EXPECT_FALSE(network.cell_medium(0).topology().complete_sensing());
  network.run(50);
  // Cross-cell countdowns cannot synchronize: collisions are now a genuine
  // outcome, with at least one cross-cell partner pair in the ledger.
  EXPECT_GT(network.medium_counters().collisions, 0u);
  std::uint64_t cross_cell_pairs = 0;
  for (LinkId a = 0; a < 10; ++a) {
    for (LinkId b = 0; b < 10; ++b) {
      if (a / 5 != b / 5) cross_cell_pairs += network.cell_medium(0).collision_pair_count(a, b);
    }
  }
  EXPECT_GT(cross_cell_pairs, 0u);
}

TEST(TopologyNetworkTest, FcsmaCollidesMoreWithHiddenTerminals) {
  Network complete{control_symmetric(0.9, 0.99, 11), expfw::fcsma_factory()};
  Network hidden{
      with_topology(control_symmetric(0.9, 0.99, 11), hidden_cells_topology(10, 5)),
      expfw::fcsma_factory()};
  complete.run(200);
  hidden.run(200);
  EXPECT_GT(hidden.medium_counters().collisions,
            complete.medium_counters().collisions);
}

TEST(TopologyNetworkTest, IndependentCellsAllowSpatialReuse) {
  // Two cells with no cross-cell conflicts at all: both cells deliver
  // concurrently, which a complete collision domain cannot do. Aggregate
  // deficiency must not exceed the single-domain run's.
  Network shared{control_symmetric(1.0, 0.99, 13), expfw::dbdp_factory()};
  Network split{
      with_topology(control_symmetric(1.0, 0.99, 13), expfw::two_cell_topology(5, 0)),
      expfw::dbdp_factory()};
  shared.run(200);
  split.run(200);
  EXPECT_LT(split.total_deficiency(), shared.total_deficiency());
}

}  // namespace
}  // namespace rtmac::net
