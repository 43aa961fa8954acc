#include "attack/pollution.h"

#include <cmath>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"

namespace ipda::attack {
namespace {

using agg::TreeColor;
using agg::Vector;

TEST(PollutionHook, OnlyAttackersTamper) {
  PollutionConfig config;
  config.attackers = {3, 7};
  config.additive_delta = 5.0;
  auto hook = MakePollutionHook(config);
  Vector partial{10.0};
  hook(1, TreeColor::kRed, partial);
  EXPECT_EQ(partial[0], 10.0);  // Honest node untouched.
  hook(3, TreeColor::kRed, partial);
  EXPECT_EQ(partial[0], 15.0);
  hook(7, TreeColor::kBlue, partial);
  EXPECT_EQ(partial[0], 20.0);
}

TEST(PollutionHook, ScaleAttack) {
  PollutionConfig config;
  config.attackers = {1};
  config.scale = 0.5;  // Under-report (the paper's utility-bill fraud).
  auto hook = MakePollutionHook(config);
  Vector partial{200.0, 40.0};
  hook(1, TreeColor::kRed, partial);
  EXPECT_EQ(partial, (Vector{100.0, 20.0}));
}

TEST(PollutionHook, FiredCounterTracksActivations) {
  PollutionConfig config;
  config.attackers = {2};
  config.additive_delta = 1.0;
  size_t fired = 0;
  auto hook = MakePollutionHook(config, &fired);
  Vector partial{0.0};
  hook(2, TreeColor::kRed, partial);
  hook(2, TreeColor::kRed, partial);
  hook(5, TreeColor::kRed, partial);
  EXPECT_EQ(fired, 2u);
}

class PollutionDetection : public ::testing::TestWithParam<double> {};

TEST_P(PollutionDetection, AnyMeaningfulDeltaIsCaught) {
  // §IV-A-4: any individual polluter beyond Th is detected, whatever the
  // tampering magnitude or sign.
  agg::RunConfig config;
  config.deployment.node_count = 400;
  config.seed = 31337;
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  agg::IpdaConfig ipda;
  ipda.slice_range = 1.0;
  PollutionConfig attack_config;
  attack_config.attackers = {50};
  attack_config.additive_delta = GetParam();
  size_t fired = 0;
  agg::IpdaRunHooks hooks;
  hooks.pollution = MakePollutionHook(attack_config, &fired);
  auto result = agg::RunIpda(config, *function, *field, ipda, hooks);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(fired, 0u);
  EXPECT_FALSE(result->stats.decision.accepted);
  EXPECT_GT(result->stats.decision.max_component_diff, ipda.threshold);
}

INSTANTIATE_TEST_SUITE_P(Deltas, PollutionDetection,
                         ::testing::Values(10.0, -25.0, 100.0, 1000.0,
                                           -500.0));

TEST(PollutionDetection, TamperingWithinThresholdSlipsThrough) {
  // The Th tolerance is a real trade-off: tampering smaller than Th is
  // indistinguishable from loss (the paper accepts this).
  agg::RunConfig config;
  config.deployment.node_count = 400;
  config.seed = 31338;
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  agg::IpdaConfig ipda;
  ipda.slice_range = 1.0;
  ipda.threshold = 5.0;
  PollutionConfig attack_config;
  attack_config.attackers = {60};
  attack_config.additive_delta = 3.0;  // Below Th.
  size_t fired = 0;
  agg::IpdaRunHooks hooks;
  hooks.pollution = MakePollutionHook(attack_config, &fired);
  auto result = agg::RunIpda(config, *function, *field, ipda, hooks);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(fired, 0u);
  EXPECT_TRUE(result->stats.decision.accepted);
}

TEST(PollutionDetection, MultipleIndependentAttackersStillCaught) {
  agg::RunConfig config;
  config.deployment.node_count = 400;
  config.seed = 31339;
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  agg::IpdaConfig ipda;
  ipda.slice_range = 1.0;
  PollutionConfig attack_config;
  attack_config.attackers = {10, 20, 30, 40};
  attack_config.additive_delta = 17.0;
  size_t fired = 0;
  agg::IpdaRunHooks hooks;
  hooks.pollution = MakePollutionHook(attack_config, &fired);
  auto result = agg::RunIpda(config, *function, *field, ipda, hooks);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(fired, 1u);
  // Independent attackers land on random trees with random magnitudes:
  // exact cancellation is measure-zero.
  EXPECT_FALSE(result->stats.decision.accepted);
}

TEST(PollutionDetection, NanInjectingAggregatorIsRejected) {
  // A polluter that writes NaN makes |S_red - S_blue| NaN; the round must
  // be rejected (not waved through as "no difference") and must not abort.
  agg::RunConfig config;
  config.deployment.node_count = 400;
  config.seed = 31337;
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  agg::IpdaConfig ipda;
  ipda.slice_range = 1.0;
  size_t fired = 0;
  agg::IpdaRunHooks hooks;
  hooks.pollution = [&fired](net::NodeId node, TreeColor, Vector& partial) {
    if (node != 50) return;
    for (double& v : partial) v = std::nan("");
    fired += 1;
  };
  auto result = agg::RunIpda(config, *function, *field, ipda, hooks);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(fired, 0u);
  EXPECT_FALSE(result->stats.decision.accepted);
  EXPECT_TRUE(std::isnan(result->stats.decision.max_component_diff));
  EXPECT_EQ(result->metrics.GaugeOr("agg.accepted", -1.0), 0.0);
}

TEST(PollutionDetection, TagBaselineHasNoDefense) {
  // The same tampering against TAG goes completely unnoticed — TAG has no
  // redundancy check. We emulate tampering by comparing TAG's collected
  // value against truth: TAG accepts whatever arrives.
  agg::RunConfig config;
  config.deployment.node_count = 400;
  config.seed = 31340;
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  auto result = agg::RunTag(config, *function, *field);
  ASSERT_TRUE(result.ok());
  // TAG exposes no acceptance decision at all; the collected result is
  // whatever the tree produced. (Structural check: TagStats has no
  // decision; this test documents the asymmetry.)
  EXPECT_GT(result->stats.collected[0], 0.0);
}

}  // namespace
}  // namespace ipda::attack
