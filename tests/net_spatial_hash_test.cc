// Property suite for the spatial-hash topology build (DESIGN.md §13).
//
// The contract the grid must honor: it is a pruner, never a filter — the
// graph Build() produces is EXACTLY the graph the O(N²) brute-force scan
// produces, for any deployment, density, and range, including nodes on
// cell boundaries, and including the churn mutation path (Detach/Attach/
// Move + Compact), which re-links through the same grid.

#include "net/spatial_hash.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "brute_force_topology.h"
#include "net/topology.h"
#include "util/random.h"

namespace ipda::net {
namespace {

// Asserts the topology exposes exactly the given adjacency, node for node.
void ExpectSameGraph(const Topology& actual,
                     const std::vector<std::vector<NodeId>>& expected) {
  ASSERT_EQ(actual.node_count(), expected.size());
  for (NodeId id = 0; id < actual.node_count(); ++id) {
    const NeighborSpan a = actual.neighbors(id);
    const std::vector<NodeId>& e = expected[id];
    ASSERT_EQ(a.size(), e.size()) << "degree mismatch at node " << id;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], e[i]) << "neighbor list mismatch at node " << id;
    }
  }
}

// Reference neighbor list: brute-force over the *current* positions and
// active flags, mirroring the unit-disk predicate exactly.
std::vector<NodeId> BruteNeighbors(const Topology& topo, NodeId id) {
  std::vector<NodeId> out;
  if (!topo.active(id)) return out;
  const double range_sq = topo.range() * topo.range();
  for (NodeId v = 0; v < topo.node_count(); ++v) {
    if (v == id || !topo.active(v)) continue;
    const double dx = topo.x(id) - topo.x(v);
    const double dy = topo.y(id) - topo.y(v);
    if (dx * dx + dy * dy <= range_sq) out.push_back(v);
  }
  return out;
}

void ExpectMatchesBrute(const Topology& topo) {
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    const std::vector<NodeId> expected = BruteNeighbors(topo, id);
    const NeighborSpan span = topo.neighbors(id);
    const std::vector<NodeId> actual(span.begin(), span.end());
    ASSERT_EQ(actual, expected) << "node " << id;
  }
}

std::vector<Point2D> RandomPositions(util::Rng& rng, size_t n,
                                     double side) {
  std::vector<Point2D> positions;
  positions.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    positions.push_back(
        Point2D{rng.UniformDouble() * side, rng.UniformDouble() * side});
  }
  return positions;
}

TEST(SpatialHash, CandidatesAreASupersetOfInRangeNodes) {
  util::Rng rng(7);
  const std::vector<Point2D> positions = RandomPositions(rng, 300, 400.0);
  std::vector<double> xs, ys;
  for (const Point2D& p : positions) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  const double range = 50.0;
  SpatialHash grid(xs.data(), ys.data(), xs.size(), range);
  std::vector<uint32_t> candidates;
  for (size_t i = 0; i < positions.size(); ++i) {
    candidates.clear();
    grid.Candidates(positions[i], range, candidates);
    for (size_t j = 0; j < positions.size(); ++j) {
      if (Distance(positions[i], positions[j]) <= range) {
        EXPECT_NE(std::find(candidates.begin(), candidates.end(), j),
                  candidates.end())
            << "in-range node " << j << " missing from candidates of " << i;
      }
    }
  }
}

// The core property: grid build == brute-force build, across network
// sizes, densities (area side), and radio ranges.
TEST(SpatialHashProperty, BuildEqualsBruteForce) {
  const size_t sizes[] = {1, 2, 3, 17, 64, 250};
  const double sides[] = {30.0, 400.0, 2000.0};
  const double ranges[] = {10.0, 50.0, 175.0};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (size_t n : sizes) {
      for (double side : sides) {
        for (double range : ranges) {
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << seed << " n=" << n << " side=" << side
                       << " range=" << range);
          util::Rng rng(util::Mix64(seed, n * 1000 +
                                              static_cast<uint64_t>(side)));
          std::vector<Point2D> positions = RandomPositions(rng, n, side);
          auto fast = Topology::Build(positions, range);
          ASSERT_TRUE(fast.ok());
          ExpectSameGraph(*fast, bench::BruteForceAdjacency(positions, range));
        }
      }
    }
  }
}

// Nodes sitting exactly on cell boundaries (coordinates at multiples of
// the cell size == range) and exactly at range distance must not be
// dropped by cell rounding.
TEST(SpatialHashProperty, CellBoundaryAndExactRangeNodes) {
  const double range = 50.0;
  std::vector<Point2D> positions;
  for (int i = 0; i <= 6; ++i) {
    for (int j = 0; j <= 6; ++j) {
      // Lattice on exact cell corners.
      positions.push_back(Point2D{range * i, range * j});
    }
  }
  // A few off-lattice probes, including exact-range pairs.
  positions.push_back(Point2D{25.0, 0.0});
  positions.push_back(Point2D{75.0, 0.0});  // Exactly 50 from the previous.
  positions.push_back(Point2D{300.0, 300.0});
  auto fast = Topology::Build(positions, range);
  ASSERT_TRUE(fast.ok());
  ExpectSameGraph(*fast, bench::BruteForceAdjacency(positions, range));
  // Sanity: the lattice neighbors at exactly `range` are linked.
  EXPECT_TRUE(fast->AreNeighbors(0, 1));
}

// Duplicate coordinates (all nodes in one cell) and a single far outlier
// (extreme aspect ratio) exercise the axis clamping.
TEST(SpatialHashProperty, DegenerateLayouts) {
  std::vector<Point2D> stacked(40, Point2D{10.0, 10.0});
  stacked.push_back(Point2D{1e6, 1e6});
  auto fast = Topology::Build(stacked, 50.0);
  ASSERT_TRUE(fast.ok());
  ExpectSameGraph(*fast, bench::BruteForceAdjacency(stacked, 50.0));
}

// Churn equivalence: after any sequence of DetachNode/AttachNode/MoveNode,
// the patched adjacency matches a brute-force recompute over the current
// positions and active flags — and survives Compact() unchanged.
TEST(SpatialHashProperty, ChurnRelinksMatchBruteForce) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed);
    DeploymentConfig config;
    config.node_count = 150;
    auto topo = Topology::RandomGeometric(config, 50.0, rng);
    ASSERT_TRUE(topo.ok());

    std::vector<bool> detached(topo->node_count(), false);
    util::Rng churn_rng(util::Mix64(seed, 0xC0FFEE));
    for (int step = 0; step < 120; ++step) {
      const NodeId id = static_cast<NodeId>(
          1 + churn_rng.UniformUint64(topo->node_count() - 1));
      switch (churn_rng.UniformUint64(3)) {
        case 0:
          if (!detached[id]) {
            topo->DetachNode(id);
            detached[id] = true;
          }
          break;
        case 1:
          if (detached[id]) {
            topo->AttachNode(id);
            detached[id] = false;
          }
          break;
        default:
          // Moves may leave the original deployment area: the grid clamps
          // to border cells, the exact predicate still decides.
          topo->MoveNode(
              id, Point2D{churn_rng.UniformDouble() * 500.0 - 50.0,
                          churn_rng.UniformDouble() * 500.0 - 50.0});
          break;
      }
      if (step % 30 == 9) ExpectMatchesBrute(*topo);
    }
    ExpectMatchesBrute(*topo);

    topo->Compact();
    EXPECT_FALSE(topo->mutated());
    ExpectMatchesBrute(*topo);

    // The grid stays usable for a second churn epoch after Compact().
    topo->MoveNode(1, Point2D{0.0, 0.0});
    topo->DetachNode(2);
    ExpectMatchesBrute(*topo);
  }
}

// Compact() must preserve the exact byte layout contract: ascending
// neighbor ids, symmetric adjacency.
TEST(SpatialHashProperty, CompactedAdjacencyIsSortedAndSymmetric) {
  util::Rng rng(11);
  DeploymentConfig config;
  config.node_count = 120;
  auto topo = Topology::RandomGeometric(config, 60.0, rng);
  ASSERT_TRUE(topo.ok());
  util::Rng churn_rng(99);
  for (int step = 0; step < 40; ++step) {
    const NodeId id = static_cast<NodeId>(
        1 + churn_rng.UniformUint64(topo->node_count() - 1));
    topo->MoveNode(id, Point2D{churn_rng.UniformDouble() * 400.0,
                               churn_rng.UniformDouble() * 400.0});
  }
  topo->Compact();
  for (NodeId a = 0; a < topo->node_count(); ++a) {
    const NeighborSpan list = topo->neighbors(a);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    for (NodeId b : list) {
      EXPECT_TRUE(topo->AreNeighbors(b, a)) << a << "<->" << b;
    }
  }
}

}  // namespace
}  // namespace ipda::net
