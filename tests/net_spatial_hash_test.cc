// Property suite for the spatial-hash topology build (DESIGN.md §13).
//
// The contract the grid must honor: it is a pruner, never a filter — the
// graph Build() produces is EXACTLY the graph the O(N²) brute-force scan
// produces, for any deployment, density, and range, including nodes on
// cell boundaries, and including the churn mutation path (Detach/Attach/
// Move + Compact), which re-links through the same grid.

#include "net/spatial_hash.h"

#include <algorithm>
#include <cmath>
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

// The all-pairs referee over the topology's current positions, restricted
// to active nodes: a detached node has no edges and is nobody's neighbor.
std::vector<std::vector<NodeId>> BruteAdjacencyOf(const Topology& topo) {
  std::vector<Point2D> positions;
  positions.reserve(topo.node_count());
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    positions.push_back(topo.position(id));
  }
  std::vector<std::vector<NodeId>> adjacency =
      bench::BruteForceAdjacency(positions, topo.range());
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    std::vector<NodeId>& list = adjacency[id];
    if (!topo.active(id)) {
      list.clear();
      continue;
    }
    std::erase_if(list, [&](NodeId v) { return !topo.active(v); });
  }
  return adjacency;
}

void ExpectMatchesBrute(const Topology& topo) {
  ExpectSameGraph(topo, BruteAdjacencyOf(topo));
}

// Every neighbor list, copied: the byte-identity snapshot.
std::vector<std::vector<NodeId>> Lists(const Topology& topo) {
  std::vector<std::vector<NodeId>> lists(topo.node_count());
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    const NeighborSpan span = topo.neighbors(id);
    lists[id].assign(span.begin(), span.end());
  }
  return lists;
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
    grid.ForEachCandidate(positions[i], range,
                          [&](uint32_t id) { candidates.push_back(id); });
    std::vector<uint32_t> sorted = candidates;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "a candidate of " << i << " was visited twice";
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
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesBrute(*topo));
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

// Walks shaped like the churn injector's random-waypoint mobility (2.5-m
// steps toward a waypoint, a new waypoint on arrival) interleaved with
// leaves and rejoins, checked against the all-pairs referee after every
// single step, across Compact() epochs.
TEST(SpatialHashProperty, WaypointWalksMatchBruteForceEveryStep) {
  constexpr double kStep = 2.5;  // 10 m/s over a 250-ms tick.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(util::Mix64(seed, 0x3A1C));
    DeploymentConfig config;
    config.node_count = 150;
    auto topo = Topology::RandomGeometric(config, 50.0, rng);
    ASSERT_TRUE(topo.ok());
    const double side = config.area.width;
    util::Rng walk_rng(util::Mix64(seed, 0x3A1D));
    std::vector<NodeId> walkers;
    std::vector<Point2D> targets;
    for (NodeId id = 1; id < topo->node_count(); id += 4) {
      walkers.push_back(id);
      targets.push_back(Point2D{walk_rng.UniformDouble(0.0, side),
                                walk_rng.UniformDouble(0.0, side)});
    }
    for (int tick = 0; tick < 12; ++tick) {
      for (size_t w = 0; w < walkers.size(); ++w) {
        const NodeId id = walkers[w];
        // Leave / rejoin now and then, as the churn injector does.
        if (walk_rng.UniformUint64(40) == 0) {
          if (topo->active(id)) {
            topo->DetachNode(id);
          } else {
            topo->AttachNode(id);
          }
          ASSERT_NO_FATAL_FAILURE(ExpectMatchesBrute(*topo));
        }
        const Point2D from = topo->position(id);
        const double dist = Distance(from, targets[w]);
        Point2D next = targets[w];
        if (dist > kStep) {
          const double scale = kStep / dist;
          next = Point2D{from.x + (targets[w].x - from.x) * scale,
                         from.y + (targets[w].y - from.y) * scale};
        } else {
          targets[w] = Point2D{walk_rng.UniformDouble(0.0, side),
                               walk_rng.UniformDouble(0.0, side)};
        }
        topo->MoveNode(id, next);
        ASSERT_NO_FATAL_FAILURE(ExpectMatchesBrute(*topo));
      }
      if (tick % 4 == 3) {
        topo->Compact();
        ASSERT_FALSE(topo->mutated());
        ASSERT_NO_FATAL_FAILURE(ExpectMatchesBrute(*topo));
      }
    }
  }
}

// The unit-disk predicate is `<=`: a neighbor moved to exactly `range`
// links, one ulp beyond it unlinks, whichever end of the pair moves.
TEST(SpatialHashProperty, ExactRangeLinksAndOneUlpBeyondUnlinks) {
  const double range = 50.0;
  std::vector<Point2D> positions = {{0.0, 0.0},     {100.0, 100.0},
                                    {300.0, 300.0}, {20.0, 380.0},
                                    {380.0, 20.0},  {200.0, 200.0}};
  auto topo = Topology::Build(positions, range);
  ASSERT_TRUE(topo.ok());
  ASSERT_FALSE(topo->AreNeighbors(1, 5));
  // dx is exactly 50 and dy 0: the squared distance equals range² exactly.
  topo->MoveNode(5, Point2D{150.0, 100.0});
  EXPECT_TRUE(topo->AreNeighbors(1, 5));
  EXPECT_TRUE(topo->AreNeighbors(5, 1));
  ExpectMatchesBrute(*topo);
  topo->MoveNode(5, Point2D{std::nextafter(150.0, 200.0), 100.0});
  EXPECT_FALSE(topo->AreNeighbors(1, 5));
  EXPECT_FALSE(topo->AreNeighbors(5, 1));
  ExpectMatchesBrute(*topo);
  // Now the other end moves: 1 steps to exactly range below 5, then one
  // ulp further away.
  topo->MoveNode(5, Point2D{150.0, 100.0});
  topo->MoveNode(1, Point2D{150.0, 50.0});
  EXPECT_TRUE(topo->AreNeighbors(1, 5));
  ExpectMatchesBrute(*topo);
  topo->MoveNode(1, Point2D{150.0, std::nextafter(50.0, 0.0)});
  EXPECT_FALSE(topo->AreNeighbors(1, 5));
  ExpectMatchesBrute(*topo);
}

// A detached node that moves keeps no edges and appears in no list; on
// AttachNode it links by its new position.
TEST(SpatialHashProperty, DetachedNodeMovesThenAttaches) {
  util::Rng rng(21);
  DeploymentConfig config;
  config.node_count = 120;
  auto topo = Topology::RandomGeometric(config, 50.0, rng);
  ASSERT_TRUE(topo.ok());
  const NodeId id = 7;
  topo->DetachNode(id);
  ExpectMatchesBrute(*topo);
  const uint64_t moves = topo->moves();
  topo->MoveNode(id, Point2D{10.0, 10.0});
  topo->MoveNode(id, Point2D{390.0, 200.0});
  topo->MoveNode(id, topo->position(1));  // On top of another node.
  EXPECT_EQ(topo->moves(), moves + 3);
  EXPECT_TRUE(topo->neighbors(id).empty());
  for (NodeId v = 0; v < topo->node_count(); ++v) {
    EXPECT_FALSE(topo->AreNeighbors(v, id)) << v;
  }
  ExpectMatchesBrute(*topo);
  topo->AttachNode(id);
  EXPECT_TRUE(topo->AreNeighbors(id, 1));
  ExpectMatchesBrute(*topo);
  topo->Compact();
  ExpectMatchesBrute(*topo);
}

// Moves that gain and lose no edge leave every list byte-identical, but
// still count as moves and still mark the topology mutated.
TEST(SpatialHashProperty, NoOpMovesLeaveEveryListIdentical) {
  util::Rng rng(5);
  DeploymentConfig config;
  config.node_count = 150;
  auto topo = Topology::RandomGeometric(config, 50.0, rng);
  ASSERT_TRUE(topo.ok());
  const std::vector<std::vector<NodeId>> before = Lists(*topo);
  for (NodeId id = 1; id < topo->node_count(); ++id) {
    topo->MoveNode(id, topo->position(id));
  }
  EXPECT_TRUE(topo->mutated());
  EXPECT_EQ(topo->moves(), topo->node_count() - 1);
  EXPECT_EQ(Lists(*topo), before);
  // A 1-mm step that crosses no range boundary changes nothing either.
  const std::vector<std::vector<NodeId>> brute_before =
      BruteAdjacencyOf(*topo);
  for (NodeId id = 1; id < topo->node_count(); id += 3) {
    const Point2D at = topo->position(id);
    topo->MoveNode(id, Point2D{at.x + 1e-3, at.y});
    if (BruteAdjacencyOf(*topo) != brute_before) {
      topo->MoveNode(id, at);  // This step did cross a boundary.
    }
  }
  EXPECT_EQ(Lists(*topo), before);
  topo->Compact();
  EXPECT_EQ(Lists(*topo), before);
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
