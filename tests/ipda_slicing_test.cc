#include "agg/ipda/slicing.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ipda::agg {
namespace {

// Returning forms of the write-into APIs, for terse assertions.
std::vector<Vector> Slice(const Vector& value, uint32_t l, double range,
                          util::Rng& rng) {
  std::vector<Vector> slices;
  SliceVector(value, l, range, rng, slices);
  return slices;
}

util::Result<SlicePlan> Plan(NodeRole role, uint32_t l,
                             const std::vector<net::NodeId>& red,
                             const std::vector<net::NodeId>& blue,
                             util::Rng& rng) {
  SlicePlan plan;
  IPDA_RETURN_IF_ERROR(PlanSlices(role, l, red, blue, rng, plan));
  return plan;
}

TEST(SliceVector, SlicesSumToValue) {
  util::Rng rng(1);
  const Vector value{10.0, -3.5, 0.0};
  for (uint32_t l : {1u, 2u, 3u, 5u, 10u}) {
    auto slices = Slice(value, l, 50.0, rng);
    ASSERT_EQ(slices.size(), l);
    Vector sum(value.size(), 0.0);
    for (const auto& s : slices) AddInto(sum, s);
    for (size_t c = 0; c < value.size(); ++c) {
      EXPECT_NEAR(sum[c], value[c], 1e-9) << "l=" << l << " c=" << c;
    }
  }
}

TEST(SliceVector, SingleSliceIsValueItself) {
  util::Rng rng(2);
  const Vector value{7.0};
  auto slices = Slice(value, 1, 50.0, rng);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0], value);
}

TEST(SliceVector, NoiseSlicesRespectRange) {
  util::Rng rng(3);
  const Vector value{1.0};
  for (int trial = 0; trial < 200; ++trial) {
    auto slices = Slice(value, 3, 2.0, rng);
    // All but the remainder slice are bounded by the range.
    EXPECT_LE(std::fabs(slices[0][0]), 2.0);
    EXPECT_LE(std::fabs(slices[1][0]), 2.0);
  }
}

TEST(SliceVector, SlicesAreRandomized) {
  util::Rng rng(4);
  const Vector value{5.0};
  auto a = Slice(value, 2, 50.0, rng);
  auto b = Slice(value, 2, 50.0, rng);
  EXPECT_NE(a[0][0], b[0][0]);
}

TEST(SliceVector, NoiseSliceIsStatisticallyIndependentOfValue) {
  // The first slice of value v and of value v' should have identical
  // distributions — here: means both near 0 regardless of value.
  util::Rng rng(5);
  double mean_small = 0.0, mean_big = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    mean_small += Slice({1.0}, 2, 10.0, rng)[0][0];
    mean_big += Slice({1000.0}, 2, 10.0, rng)[0][0];
  }
  EXPECT_NEAR(mean_small / n, 0.0, 0.2);
  EXPECT_NEAR(mean_big / n, 0.0, 0.2);
}

TEST(SliceVector, ReusedSlicesMatchFreshOnesDrawForDraw) {
  // One slice set serves every node of a round: after holding more and
  // longer slices, it must come out bit-identical to a fresh set, from the
  // same draws (the next draw of both streams agrees too).
  util::Rng fresh_rng(21);
  util::Rng reused_rng(21);
  std::vector<Vector> reused;
  const std::vector<std::pair<Vector, uint32_t>> cases = {
      {{1.0, 2.0, 3.0}, 5}, {{4.0}, 2}, {{-1.0, 0.5}, 3}, {{7.0}, 1}};
  for (const auto& [value, l] : cases) {
    const std::vector<Vector> fresh = Slice(value, l, 9.0, fresh_rng);
    SliceVector(value, l, 9.0, reused_rng, reused);
    EXPECT_EQ(reused, fresh) << "l=" << l;
  }
  EXPECT_EQ(reused_rng.NextUint64(), fresh_rng.NextUint64());
}

std::vector<net::NodeId> Ids(std::initializer_list<net::NodeId> ids) {
  return std::vector<net::NodeId>(ids);
}

TEST(PlanSlices, LeafNeedsLPerColor) {
  util::Rng rng(6);
  auto plan = Plan(NodeRole::kLeaf, 2, Ids({1, 2, 3}), Ids({4, 5}),
                         rng);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->red.targets.size(), 2u);
  EXPECT_EQ(plan->blue.targets.size(), 2u);
  EXPECT_FALSE(plan->red.keep_local);
  EXPECT_FALSE(plan->blue.keep_local);
  EXPECT_EQ(plan->TransmissionCount(), 4u);  // 2l for a leaf.
}

TEST(PlanSlices, RedAggregatorKeepsOneLocally) {
  util::Rng rng(7);
  auto plan = Plan(NodeRole::kRedAggregator, 2, Ids({1}), Ids({4, 5}),
                         rng);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->red.keep_local);
  EXPECT_EQ(plan->red.targets.size(), 1u);   // l-1 remote red slices.
  EXPECT_EQ(plan->blue.targets.size(), 2u);  // l remote blue slices.
  EXPECT_EQ(plan->TransmissionCount(), 3u);  // 2l-1 (§III-C-1).
}

TEST(PlanSlices, BlueAggregatorSymmetric) {
  util::Rng rng(8);
  auto plan = Plan(NodeRole::kBlueAggregator, 3, Ids({1, 2, 3}),
                         Ids({4, 5}), rng);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->blue.keep_local);
  EXPECT_EQ(plan->blue.targets.size(), 2u);
  EXPECT_EQ(plan->red.targets.size(), 3u);
  EXPECT_EQ(plan->TransmissionCount(), 5u);
}

TEST(PlanSlices, LEqualsOneAggregatorSendsToOtherColorOnly) {
  util::Rng rng(9);
  auto plan =
      Plan(NodeRole::kRedAggregator, 1, Ids({}), Ids({4}), rng);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->red.keep_local);
  EXPECT_TRUE(plan->red.targets.empty());
  EXPECT_EQ(plan->blue.targets.size(), 1u);
  EXPECT_EQ(plan->TransmissionCount(), 1u);  // 2l-1 = 1.
}

TEST(PlanSlices, InsufficientTargetsFails) {
  util::Rng rng(10);
  // Leaf wants 2+2, only one blue candidate.
  auto starved =
      Plan(NodeRole::kLeaf, 2, Ids({1, 2}), Ids({3}), rng);
  EXPECT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), util::StatusCode::kFailedPrecondition);
  // Red aggregator with no other red neighbor still works at l=2? No:
  // needs l-1 = 1 red target.
  EXPECT_FALSE(
      Plan(NodeRole::kRedAggregator, 2, Ids({}), Ids({3, 4}), rng)
          .ok());
}

TEST(PlanSlices, UndecidedAndBaseStationCannotSlice) {
  util::Rng rng(11);
  EXPECT_FALSE(
      Plan(NodeRole::kUndecided, 1, Ids({1}), Ids({2}), rng).ok());
  EXPECT_FALSE(
      Plan(NodeRole::kBaseStation, 1, Ids({1}), Ids({2}), rng).ok());
  EXPECT_FALSE(
      Plan(NodeRole::kExcluded, 1, Ids({1}), Ids({2}), rng).ok());
}

TEST(PlanSlices, TargetsAreDistinctAndFromCandidates) {
  util::Rng rng(12);
  const auto red = Ids({1, 2, 3, 4, 5});
  const auto blue = Ids({6, 7, 8, 9});
  for (int trial = 0; trial < 100; ++trial) {
    auto plan = Plan(NodeRole::kLeaf, 3, red, blue, rng);
    ASSERT_TRUE(plan.ok());
    std::set<net::NodeId> red_set(plan->red.targets.begin(),
                                  plan->red.targets.end());
    EXPECT_EQ(red_set.size(), 3u);
    for (net::NodeId id : red_set) {
      EXPECT_TRUE(std::find(red.begin(), red.end(), id) != red.end());
    }
    std::set<net::NodeId> blue_set(plan->blue.targets.begin(),
                                   plan->blue.targets.end());
    EXPECT_EQ(blue_set.size(), 3u);
  }
}

TEST(PlanSlices, SelectionIsUniformish) {
  // Every candidate should be picked reasonably often.
  util::Rng rng(13);
  const auto red = Ids({1, 2, 3, 4});
  const auto blue = Ids({5, 6, 7, 8});
  std::map<net::NodeId, int> counts;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    auto plan = Plan(NodeRole::kLeaf, 2, red, blue, rng);
    for (net::NodeId id : plan->red.targets) ++counts[id];
  }
  for (net::NodeId id : red) {
    EXPECT_NEAR(static_cast<double>(counts[id]) / trials, 0.5, 0.05);
  }
}

TEST(PlanSlices, ReusedPlanMatchesFreshPlan) {
  // A plan reused across nodes: a red aggregator's keep_local and longer
  // target lists must not survive into the next node's plan.
  util::Rng fresh_rng(14);
  util::Rng reused_rng(14);
  SlicePlan reused;
  const auto red = Ids({1, 2, 3, 4, 5});
  const auto blue = Ids({6, 7, 8});
  for (NodeRole role : {NodeRole::kRedAggregator, NodeRole::kLeaf,
                        NodeRole::kBlueAggregator, NodeRole::kLeaf}) {
    const uint32_t l = role == NodeRole::kLeaf ? 2 : 3;
    auto fresh = Plan(role, l, red, blue, fresh_rng);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(PlanSlices(role, l, red, blue, reused_rng, reused).ok());
    EXPECT_EQ(reused.red.targets, fresh->red.targets);
    EXPECT_EQ(reused.blue.targets, fresh->blue.targets);
    EXPECT_EQ(reused.red.keep_local, fresh->red.keep_local);
    EXPECT_EQ(reused.blue.keep_local, fresh->blue.keep_local);
  }
}

}  // namespace
}  // namespace ipda::agg
