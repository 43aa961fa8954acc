// TreeBuilder (Phase I) state-machine tests with a hand-driven timer, no
// network involved.

#include "agg/ipda/tree_construction.h"

#include <functional>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

namespace ipda::agg {
namespace {

class TreeBuilderHarness {
 public:
  explicit TreeBuilderHarness(IpdaConfig config = {}, uint64_t seed = 1)
      : config_(config),
        builder_(/*self=*/10, &config_, util::Rng(seed),
                 [this](sim::SimTime delay, std::function<void()> fn) {
                   timers_.push_back({delay, std::move(fn)});
                 },
                 [this](const HelloMsg& hello) { joins_.push_back(hello); }) {
  }

  // The builder's aggregator neighbors of `color`, returned.
  std::vector<net::NodeId> Neighbors(TreeColor color) const {
    std::vector<net::NodeId> out;
    builder_.AggregatorNeighbors(color, out);
    return out;
  }

  // Fires every pending timer (decide timers re-arm at most once here).
  void FireTimers() {
    auto timers = std::move(timers_);
    timers_.clear();
    for (auto& [delay, fn] : timers) fn();
  }

  IpdaConfig config_;
  std::vector<std::pair<sim::SimTime, std::function<void()>>> timers_;
  std::vector<HelloMsg> joins_;
  TreeBuilder builder_;
};

TEST(TreeBuilder, UndecidedUntilBothColorsHeard) {
  TreeBuilderHarness h;
  EXPECT_FALSE(h.builder_.decided());
  h.builder_.OnHello(1, {TreeColor::kRed, 1, std::nullopt});
  EXPECT_TRUE(h.timers_.empty());  // Only red heard: no decide timer.
  EXPECT_FALSE(h.builder_.covered());
  h.builder_.OnHello(2, {TreeColor::kBlue, 1, std::nullopt});
  EXPECT_TRUE(h.builder_.covered());
  ASSERT_EQ(h.timers_.size(), 1u);  // Timer armed.
  EXPECT_EQ(h.timers_[0].first, h.config_.decide_window);
  EXPECT_FALSE(h.builder_.decided());
  h.FireTimers();
  EXPECT_TRUE(h.builder_.decided());
}

TEST(TreeBuilder, BaseStationHelloCoversBothColors) {
  TreeBuilderHarness h;
  h.builder_.OnHello(0, {TreeColor::kBoth, 0, std::nullopt});
  EXPECT_TRUE(h.builder_.covered());
  h.FireTimers();
  EXPECT_TRUE(h.builder_.decided());
  // Default config: p=1, so the node must be an aggregator with the BS as
  // parent at hop 1.
  ASSERT_TRUE(h.builder_.role() == NodeRole::kRedAggregator ||
              h.builder_.role() == NodeRole::kBlueAggregator);
  EXPECT_EQ(h.builder_.parent(), 0u);
  EXPECT_EQ(h.builder_.hop(), 1u);
  ASSERT_EQ(h.joins_.size(), 1u);
  EXPECT_EQ(h.joins_[0].hop, 1u);
}

TEST(TreeBuilder, DefaultProbabilitiesAreHalf) {
  TreeBuilderHarness h;
  h.builder_.OnHello(1, {TreeColor::kRed, 1, std::nullopt});
  h.builder_.OnHello(2, {TreeColor::kBlue, 1, std::nullopt});
  EXPECT_DOUBLE_EQ(h.builder_.ProbRed(), 0.5);
  EXPECT_DOUBLE_EQ(h.builder_.ProbBlue(), 0.5);
}

TEST(TreeBuilder, AdaptiveProbabilitiesFollowEquationOne) {
  IpdaConfig config;
  config.adaptive_roles = true;
  config.k = 4;
  TreeBuilderHarness h(config);
  // 6 red + 2 blue HELLOs: total 8 > k, so p = 4/8 = 0.5;
  // pr = p * Nblue/total = 0.5 * 2/8 = 0.125; pb = 0.5 * 6/8 = 0.375.
  for (net::NodeId src = 1; src <= 6; ++src) {
    h.builder_.OnHello(src, {TreeColor::kRed, 1, std::nullopt});
  }
  h.builder_.OnHello(7, {TreeColor::kBlue, 1, std::nullopt});
  h.builder_.OnHello(8, {TreeColor::kBlue, 1, std::nullopt});
  EXPECT_DOUBLE_EQ(h.builder_.ProbRed(), 0.125);
  EXPECT_DOUBLE_EQ(h.builder_.ProbBlue(), 0.375);
}

TEST(TreeBuilder, AdaptiveSparseNeighborhoodForcesAggregator) {
  IpdaConfig config;
  config.adaptive_roles = true;
  config.k = 4;
  TreeBuilderHarness h(config);
  // Only 2 HELLOs (<= k): p = 1, split by balance: pr+pb = 1 -> no leaf.
  h.builder_.OnHello(1, {TreeColor::kRed, 1, std::nullopt});
  h.builder_.OnHello(2, {TreeColor::kBlue, 1, std::nullopt});
  EXPECT_DOUBLE_EQ(h.builder_.ProbRed() + h.builder_.ProbBlue(), 1.0);
  h.FireTimers();
  EXPECT_NE(h.builder_.role(), NodeRole::kLeaf);
}

TEST(TreeBuilder, AdaptiveDenseNeighborhoodProducesLeaves) {
  IpdaConfig config;
  config.adaptive_roles = true;
  config.k = 4;
  // With 20 HELLOs, p = 0.2: roughly 80% of draws become leaves. Run many
  // seeds and check both outcomes occur with sane frequency.
  size_t leaves = 0;
  const int trials = 200;
  for (int seed = 0; seed < trials; ++seed) {
    TreeBuilderHarness h(config, static_cast<uint64_t>(seed) + 1);
    for (net::NodeId src = 1; src <= 10; ++src) {
      h.builder_.OnHello(src, {TreeColor::kRed, 1, std::nullopt});
    }
    for (net::NodeId src = 11; src <= 20; ++src) {
      h.builder_.OnHello(src, {TreeColor::kBlue, 1, std::nullopt});
    }
    h.FireTimers();
    if (h.builder_.role() == NodeRole::kLeaf) ++leaves;
  }
  EXPECT_GT(leaves, trials / 2);
  EXPECT_LT(leaves, trials);
}

TEST(TreeBuilder, ParentIsLowestHopSameColor) {
  // Find a seed that decides red, then verify parent selection.
  for (uint64_t seed = 1; seed < 50; ++seed) {
    TreeBuilderHarness h(IpdaConfig{}, seed);
    h.builder_.OnHello(5, {TreeColor::kRed, 4, std::nullopt});
    h.builder_.OnHello(6, {TreeColor::kRed, 2, std::nullopt});
    h.builder_.OnHello(7, {TreeColor::kRed, 3, std::nullopt});
    h.builder_.OnHello(8, {TreeColor::kBlue, 1, std::nullopt});
    h.FireTimers();
    if (h.builder_.role() != NodeRole::kRedAggregator) continue;
    EXPECT_EQ(h.builder_.parent(), 6u);
    EXPECT_EQ(h.builder_.hop(), 3u);
    return;
  }
  FAIL() << "no seed decided red";
}

TEST(TreeBuilder, BlueParentIgnoresRedHellos) {
  for (uint64_t seed = 1; seed < 50; ++seed) {
    TreeBuilderHarness h(IpdaConfig{}, seed);
    h.builder_.OnHello(5, {TreeColor::kRed, 1, std::nullopt});   // Better hop, wrong color.
    h.builder_.OnHello(8, {TreeColor::kBlue, 6, std::nullopt});
    h.FireTimers();
    if (h.builder_.role() != NodeRole::kBlueAggregator) continue;
    EXPECT_EQ(h.builder_.parent(), 8u);
    EXPECT_EQ(h.builder_.hop(), 7u);
    return;
  }
  FAIL() << "no seed decided blue";
}

TEST(TreeBuilder, EqualHopParentIsFirstHeardSender) {
  // Ties go to the earlier sender, not the lower id, and a re-heard
  // HELLO keeps its first-heard place. Blacklisting the better-hop
  // sender must leave that order intact.
  for (uint64_t seed = 1; seed < 50; ++seed) {
    TreeBuilderHarness h(IpdaConfig{}, seed);
    h.builder_.OnHello(7, {TreeColor::kRed, 1, std::nullopt});
    h.builder_.OnHello(9, {TreeColor::kRed, 2, std::nullopt});
    h.builder_.OnHello(4, {TreeColor::kRed, 2, std::nullopt});
    h.builder_.OnHello(8, {TreeColor::kBlue, 1, std::nullopt});
    h.builder_.OnHello(4, {TreeColor::kRed, 2, std::nullopt});
    h.builder_.OnHello(7, {TreeColor::kBlue, 1, std::nullopt});  // Conflict.
    EXPECT_EQ(h.Neighbors(TreeColor::kRed),
              (std::vector<net::NodeId>{9, 4}));
    h.FireTimers();
    if (h.builder_.role() != NodeRole::kRedAggregator) continue;
    EXPECT_EQ(h.builder_.parent(), 9u);
    EXPECT_EQ(h.builder_.hop(), 3u);
    return;
  }
  FAIL() << "no seed decided red";
}

TEST(TreeBuilder, ImpatientJoinTieGoesToFirstHeardSender) {
  IpdaConfig config;
  config.impatient_join = true;
  TreeBuilderHarness h(config);
  h.builder_.OnHello(6, {TreeColor::kBlue, 1, std::nullopt});
  h.builder_.OnHello(9, {TreeColor::kBlue, 3, std::nullopt});
  h.builder_.OnHello(2, {TreeColor::kBlue, 3, std::nullopt});
  h.builder_.OnHello(6, {TreeColor::kRed, 1, std::nullopt});  // Conflict.
  h.FireTimers();
  ASSERT_EQ(h.builder_.role(), NodeRole::kBlueAggregator);
  EXPECT_EQ(h.builder_.parent(), 9u);
  EXPECT_EQ(h.builder_.hop(), 4u);
}

TEST(TreeBuilder, DuplicateHelloDoesNotDoubleCount) {
  TreeBuilderHarness h;
  h.builder_.OnHello(1, {TreeColor::kRed, 2, std::nullopt});
  h.builder_.OnHello(1, {TreeColor::kRed, 2, std::nullopt});
  h.builder_.OnHello(1, {TreeColor::kRed, 2, std::nullopt});
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kRed), 1u);
}

TEST(TreeBuilder, DuplicateHelloKeepsBestHop) {
  for (uint64_t seed = 1; seed < 50; ++seed) {
    TreeBuilderHarness h(IpdaConfig{}, seed);
    h.builder_.OnHello(1, {TreeColor::kRed, 5, std::nullopt});
    h.builder_.OnHello(1, {TreeColor::kRed, 2, std::nullopt});  // Improved hop.
    h.builder_.OnHello(2, {TreeColor::kBlue, 1, std::nullopt});
    h.FireTimers();
    if (h.builder_.role() != NodeRole::kRedAggregator) continue;
    EXPECT_EQ(h.builder_.hop(), 3u);
    return;
  }
  FAIL() << "no seed decided red";
}

TEST(TreeBuilder, ConflictingColorsBlacklistSender) {
  TreeBuilderHarness h;
  h.builder_.OnHello(1, {TreeColor::kRed, 1, std::nullopt});
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kRed), 1u);
  // Same node now claims blue: §III-B adversary. Remove it entirely.
  h.builder_.OnHello(1, {TreeColor::kBlue, 1, std::nullopt});
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kRed), 0u);
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kBlue), 0u);
  EXPECT_FALSE(h.builder_.covered());
  EXPECT_TRUE(h.Neighbors(TreeColor::kRed).empty());
  EXPECT_TRUE(h.Neighbors(TreeColor::kBlue).empty());
}

TEST(TreeBuilder, ConflictAfterTimerArmRearmsSafely) {
  TreeBuilderHarness h;
  h.builder_.OnHello(1, {TreeColor::kRed, 1, std::nullopt});
  h.builder_.OnHello(2, {TreeColor::kBlue, 1, std::nullopt});
  ASSERT_EQ(h.timers_.size(), 1u);
  // Blacklist the only blue sender before the timer fires.
  h.builder_.OnHello(2, {TreeColor::kRed, 1, std::nullopt});
  h.FireTimers();
  EXPECT_FALSE(h.builder_.decided());
  // Coverage restored by a fresh blue aggregator: decision proceeds.
  h.builder_.OnHello(3, {TreeColor::kBlue, 2, std::nullopt});
  h.FireTimers();
  EXPECT_TRUE(h.builder_.decided());
}

TEST(TreeBuilder, AggregatorNeighborsByColor) {
  TreeBuilderHarness h;
  h.builder_.OnHello(1, {TreeColor::kRed, 1, std::nullopt});
  h.builder_.OnHello(2, {TreeColor::kBlue, 1, std::nullopt});
  h.builder_.OnHello(3, {TreeColor::kRed, 2, std::nullopt});
  h.builder_.OnHello(0, {TreeColor::kBoth, 0, std::nullopt});
  const auto red = h.Neighbors(TreeColor::kRed);
  const auto blue = h.Neighbors(TreeColor::kBlue);
  EXPECT_EQ(red, (std::vector<net::NodeId>{1, 3, 0}));
  EXPECT_EQ(blue, (std::vector<net::NodeId>{2, 0}));
  // Written into a reused list: the longer red set leaves nothing behind.
  std::vector<net::NodeId> reused = red;
  h.builder_.AggregatorNeighbors(TreeColor::kBlue, reused);
  EXPECT_EQ(reused, blue);
}

TEST(TreeBuilder, MoreSendersThanReservedStillRecorded) {
  TreeBuilderHarness h;
  h.builder_.ReserveSenders(2);
  for (net::NodeId id = 1; id <= 6; ++id) {
    h.builder_.OnHello(id, {id % 2 == 0 ? TreeColor::kBlue : TreeColor::kRed,
                            1, std::nullopt});
  }
  EXPECT_EQ(h.Neighbors(TreeColor::kRed), (std::vector<net::NodeId>{1, 3, 5}));
  EXPECT_EQ(h.Neighbors(TreeColor::kBlue),
            (std::vector<net::NodeId>{2, 4, 6}));
}

TEST(TreeBuilder, SendersSharingAFilterBitStayDistinct) {
  // 5 and 261 differ by 256: the first-heard filter cannot tell them
  // apart, so only the scan of the heard table can.
  TreeBuilderHarness h;
  h.builder_.OnHello(5, {TreeColor::kRed, 1, std::nullopt});
  h.builder_.OnHello(261, {TreeColor::kBlue, 2, std::nullopt});
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kRed), 1u);
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kBlue), 1u);
  EXPECT_TRUE(h.builder_.covered());
  // A repeat from either is a duplicate, not a new sender.
  h.builder_.OnHello(261, {TreeColor::kBlue, 1, std::nullopt});
  h.builder_.OnHello(5, {TreeColor::kRed, 1, std::nullopt});
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kRed), 1u);
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kBlue), 1u);
  // 261 claiming red is a double color: it alone is blacklisted.
  h.builder_.OnHello(261, {TreeColor::kRed, 1, std::nullopt});
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kRed), 1u);
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kBlue), 0u);
  EXPECT_EQ(h.Neighbors(TreeColor::kRed), (std::vector<net::NodeId>{5}));
  EXPECT_TRUE(h.Neighbors(TreeColor::kBlue).empty());
  // So is 5 once it claims blue; 517, on the same bit, is new.
  h.builder_.OnHello(5, {TreeColor::kBlue, 1, std::nullopt});
  h.builder_.OnHello(517, {TreeColor::kBlue, 3, std::nullopt});
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kRed), 0u);
  EXPECT_EQ(h.builder_.hello_count(TreeColor::kBlue), 1u);
  EXPECT_EQ(h.Neighbors(TreeColor::kBlue), (std::vector<net::NodeId>{517}));
}

TEST(TreeBuilder, ForcedBaseStationNeverDecides) {
  TreeBuilderHarness h;
  h.builder_.ForceRole(NodeRole::kBaseStation);
  h.builder_.OnHello(1, {TreeColor::kRed, 1, std::nullopt});
  h.builder_.OnHello(2, {TreeColor::kBlue, 1, std::nullopt});
  EXPECT_TRUE(h.timers_.empty());
  EXPECT_EQ(h.builder_.role(), NodeRole::kBaseStation);
  EXPECT_EQ(h.builder_.hop(), 0u);
  EXPECT_TRUE(h.joins_.empty());
}

TEST(TreeBuilder, ExcludedNodeStaysOut) {
  TreeBuilderHarness h;
  h.builder_.ForceRole(NodeRole::kExcluded);
  h.builder_.OnHello(0, {TreeColor::kBoth, 0, std::nullopt});
  EXPECT_TRUE(h.timers_.empty());
  EXPECT_EQ(h.builder_.role(), NodeRole::kExcluded);
}

TEST(TreeBuilder, RoleDrawFrequenciesAreBalanced) {
  // Eq. (2): pr = pb = 0.5 — across seeds, red and blue should be roughly
  // even and leaves absent.
  size_t red = 0, blue = 0, leaf = 0;
  const int trials = 400;
  for (int seed = 0; seed < trials; ++seed) {
    TreeBuilderHarness h(IpdaConfig{}, static_cast<uint64_t>(seed) + 1000);
    h.builder_.OnHello(0, {TreeColor::kBoth, 0, std::nullopt});
    h.FireTimers();
    switch (h.builder_.role()) {
      case NodeRole::kRedAggregator:
        ++red;
        break;
      case NodeRole::kBlueAggregator:
        ++blue;
        break;
      default:
        ++leaf;
        break;
    }
  }
  EXPECT_EQ(leaf, 0u);
  EXPECT_NEAR(static_cast<double>(red) / trials, 0.5, 0.08);
  EXPECT_NEAR(static_cast<double>(blue) / trials, 0.5, 0.08);
}

}  // namespace
}  // namespace ipda::agg
