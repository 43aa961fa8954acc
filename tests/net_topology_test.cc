#include "net/topology.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ipda::net {
namespace {

TEST(Topology, BuildLinksWithinRangeOnly) {
  std::vector<Point2D> positions{{0, 0}, {30, 0}, {100, 0}, {115, 0}};
  auto topo = Topology::Build(positions, 50.0);
  ASSERT_TRUE(topo.ok());
  EXPECT_TRUE(topo->AreNeighbors(0, 1));
  EXPECT_FALSE(topo->AreNeighbors(0, 2));
  EXPECT_TRUE(topo->AreNeighbors(2, 3));
  EXPECT_FALSE(topo->AreNeighbors(1, 2));  // 70 m apart.
  EXPECT_EQ(topo->degree(0), 1u);
  EXPECT_EQ(topo->degree(2), 1u);
}

TEST(Topology, RangeBoundaryIsInclusive) {
  std::vector<Point2D> positions{{0, 0}, {50, 0}};
  auto topo = Topology::Build(positions, 50.0);
  ASSERT_TRUE(topo.ok());
  EXPECT_TRUE(topo->AreNeighbors(0, 1));
}

TEST(Topology, AdjacencyIsSymmetric) {
  util::Rng rng(5);
  DeploymentConfig config;
  config.node_count = 200;
  auto topo = Topology::RandomGeometric(config, 50.0, rng);
  ASSERT_TRUE(topo.ok());
  for (NodeId a = 0; a < topo->node_count(); ++a) {
    for (NodeId b : topo->neighbors(a)) {
      EXPECT_TRUE(topo->AreNeighbors(b, a)) << a << "<->" << b;
      EXPECT_NE(a, b);  // No self-loops.
    }
  }
}

TEST(Topology, RejectsBadInputs) {
  EXPECT_FALSE(Topology::Build({{0, 0}}, 0.0).ok());
  EXPECT_FALSE(Topology::Build({{0, 0}}, -5.0).ok());
  EXPECT_FALSE(Topology::Build({}, 50.0).ok());
}

TEST(Topology, AverageDegreeMatchesHandCount) {
  // Triangle plus one isolated node: degrees 2,2,2,0 -> mean 1.5.
  std::vector<Point2D> positions{{0, 0}, {10, 0}, {5, 8}, {500, 500}};
  auto topo = Topology::Build(positions, 20.0);
  ASSERT_TRUE(topo.ok());
  EXPECT_DOUBLE_EQ(topo->AverageDegree(), 1.5);
  EXPECT_EQ(topo->MinDegree(), 0u);
  EXPECT_EQ(topo->MaxDegree(), 2u);
}

TEST(Topology, ConnectivityAndHopCounts) {
  // Chain 0-1-2-3 with 40 m spacing, 50 m range.
  std::vector<Point2D> positions{{0, 0}, {40, 0}, {80, 0}, {120, 0}};
  auto topo = Topology::Build(positions, 50.0);
  ASSERT_TRUE(topo.ok());
  EXPECT_TRUE(topo->IsConnected());
  const auto hops = topo->HopCounts();
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], 2u);
  EXPECT_EQ(hops[3], 3u);
}

TEST(Topology, DisconnectedNodeDetected) {
  std::vector<Point2D> positions{{0, 0}, {40, 0}, {1000, 1000}};
  auto topo = Topology::Build(positions, 50.0);
  ASSERT_TRUE(topo.ok());
  EXPECT_FALSE(topo->IsConnected());
  EXPECT_EQ(topo->HopCounts()[2], UINT32_MAX);
}

TEST(Topology, MutationsCountEveryChangeButAnIdleCompact) {
  auto topo = Topology::Build({{0, 0}, {30, 0}, {60, 0}}, 50.0);
  ASSERT_TRUE(topo.ok());
  // Slots follow the CSR order: 0 has one neighbor, 1 two, 2 one.
  EXPECT_EQ(topo->edge_slots(), 4u);
  EXPECT_EQ(topo->edge_slot(1), 1u);
  EXPECT_EQ(topo->edge_slot(2), 3u);
  topo->Compact();  // Nothing to fold.
  EXPECT_EQ(topo->mutations(), 0u);
  topo->MoveNode(2, Point2D{70, 0});
  EXPECT_EQ(topo->mutations(), 1u);
  topo->DetachNode(1);
  EXPECT_EQ(topo->mutations(), 2u);
  topo->AttachNode(1);
  EXPECT_EQ(topo->mutations(), 3u);
  topo->Compact();
  EXPECT_EQ(topo->mutations(), 4u);
  EXPECT_FALSE(topo->mutated());
}

TEST(Topology, RegularRingHasExactDegree) {
  auto topo = Topology::RegularRing(20, 6);
  ASSERT_TRUE(topo.ok());
  for (NodeId id = 0; id < topo->node_count(); ++id) {
    EXPECT_EQ(topo->degree(id), 6u);
  }
  EXPECT_TRUE(topo->IsConnected());
  EXPECT_DOUBLE_EQ(topo->AverageDegree(), 6.0);
}

TEST(Topology, RegularRingNeighborsAreRingAdjacent) {
  auto topo = Topology::RegularRing(10, 4);
  ASSERT_TRUE(topo.ok());
  // Node 0 links to 1,2 (forward) and 8,9 (backward).
  const std::set<NodeId> expected{1, 2, 8, 9};
  const auto& n = topo->neighbors(0);
  EXPECT_EQ(std::set<NodeId>(n.begin(), n.end()), expected);
}

TEST(Topology, RegularRingRejectsBadDegree) {
  EXPECT_FALSE(Topology::RegularRing(10, 3).ok());   // Odd.
  EXPECT_FALSE(Topology::RegularRing(10, 0).ok());   // Zero.
  EXPECT_FALSE(Topology::RegularRing(10, 10).ok());  // d >= n.
}

// Table I cross-check: on a 400x400 m area with r=50 m, the expected mean
// degree is about N * pi r^2 / A (minus edge effects). The paper reports
// 8.8 at N=200 up to 28.4 at N=600.
class TableOneDensity : public ::testing::TestWithParam<size_t> {};

TEST_P(TableOneDensity, AverageDegreeNearTheory) {
  const size_t n = GetParam();
  DeploymentConfig config;
  config.node_count = n;
  util::Rng rng(static_cast<uint64_t>(n) * 31 + 7);
  auto topo = Topology::RandomGeometric(config, 50.0, rng);
  ASSERT_TRUE(topo.ok());
  const double density_expected =
      static_cast<double>(n) * 3.14159265358979 * 50.0 * 50.0 /
      (400.0 * 400.0);
  // Edge effects depress the mean by up to ~20%; accept a band.
  EXPECT_GT(topo->AverageDegree(), 0.70 * density_expected);
  EXPECT_LT(topo->AverageDegree(), 1.05 * density_expected);
}

INSTANTIATE_TEST_SUITE_P(NetworkSizes, TableOneDensity,
                         ::testing::Values(200, 300, 400, 500, 600));

}  // namespace
}  // namespace ipda::net
