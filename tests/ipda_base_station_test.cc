#include "agg/ipda/base_station.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "agg/ipda/config.h"

namespace ipda::agg {
namespace {

TEST(BaseStation, AgreementAccepted) {
  BaseStationAccumulator acc(1);
  acc.Add(TreeColor::kRed, {100.0});
  acc.Add(TreeColor::kBlue, {100.0});
  const auto decision = acc.Decide(5.0);
  EXPECT_TRUE(decision.accepted);
  EXPECT_EQ(decision.max_component_diff, 0.0);
  EXPECT_EQ(decision.Agreed(), Vector{100.0});
}

TEST(BaseStation, SmallLossWithinThresholdAccepted) {
  BaseStationAccumulator acc(1);
  acc.Add(TreeColor::kRed, {100.0});
  acc.Add(TreeColor::kBlue, {96.0});
  const auto decision = acc.Decide(5.0);
  EXPECT_TRUE(decision.accepted);
  EXPECT_DOUBLE_EQ(decision.max_component_diff, 4.0);
  EXPECT_EQ(decision.Agreed(), Vector{98.0});
}

TEST(BaseStation, PollutionBeyondThresholdRejected) {
  BaseStationAccumulator acc(1);
  acc.Add(TreeColor::kRed, {200.0});
  acc.Add(TreeColor::kBlue, {100.0});
  EXPECT_FALSE(acc.Decide(5.0).accepted);
}

TEST(BaseStation, BoundaryExactlyThresholdAccepted) {
  BaseStationAccumulator acc(1);
  acc.Add(TreeColor::kRed, {105.0});
  acc.Add(TreeColor::kBlue, {100.0});
  EXPECT_TRUE(acc.Decide(5.0).accepted);
  EXPECT_FALSE(acc.Decide(4.999).accepted);
}

TEST(BaseStation, AccumulatesIncrementally) {
  BaseStationAccumulator acc(2);
  acc.Add(TreeColor::kRed, {1.0, 10.0});
  acc.Add(TreeColor::kRed, {2.0, 20.0});
  acc.Add(TreeColor::kBlue, {3.0, 30.0});
  EXPECT_EQ(acc.acc(TreeColor::kRed), (Vector{3.0, 30.0}));
  EXPECT_EQ(acc.acc(TreeColor::kBlue), (Vector{3.0, 30.0}));
}

TEST(BaseStation, MultiComponentDiffUsesMax) {
  BaseStationAccumulator acc(3);
  acc.Add(TreeColor::kRed, {10.0, 20.0, 30.0});
  acc.Add(TreeColor::kBlue, {10.0, 27.0, 29.0});
  const auto decision = acc.Decide(5.0);
  EXPECT_DOUBLE_EQ(decision.max_component_diff, 7.0);
  EXPECT_FALSE(decision.accepted);
}

TEST(BaseStation, NegativePollutionAlsoCaught) {
  BaseStationAccumulator acc(1);
  acc.Add(TreeColor::kRed, {100.0});
  acc.Add(TreeColor::kBlue, {160.0});
  EXPECT_FALSE(acc.Decide(5.0).accepted);
  EXPECT_DOUBLE_EQ(acc.Decide(5.0).max_component_diff, 60.0);
}

TEST(BaseStation, ResetClearsBothTrees) {
  BaseStationAccumulator acc(1);
  acc.Add(TreeColor::kRed, {42.0});
  acc.Add(TreeColor::kBlue, {17.0});
  acc.Reset();
  EXPECT_EQ(acc.acc(TreeColor::kRed), Vector{0.0});
  EXPECT_EQ(acc.acc(TreeColor::kBlue), Vector{0.0});
  EXPECT_TRUE(acc.Decide(0.0).accepted);
}

TEST(BaseStation, ZeroThresholdDemandsExactAgreement) {
  BaseStationAccumulator acc(1);
  acc.Add(TreeColor::kRed, {50.0});
  acc.Add(TreeColor::kBlue, {50.0});
  EXPECT_TRUE(acc.Decide(0.0).accepted);
  acc.Add(TreeColor::kBlue, {1e-9});
  EXPECT_FALSE(acc.Decide(0.0).accepted);
}

TEST(BaseStation, NanTotalRejectedAndReported) {
  BaseStationAccumulator acc(1);
  acc.Add(TreeColor::kRed, {std::nan("")});
  acc.Add(TreeColor::kBlue, {10.0});
  const auto decision = acc.Decide(5.0);
  EXPECT_FALSE(decision.accepted);
  EXPECT_TRUE(std::isnan(decision.max_component_diff));
}

TEST(BaseStation, NanInOneComponentRejectsAnyOrder) {
  // NaN must survive whatever finite differences come before or after it.
  for (size_t nan_at = 0; nan_at < 3; ++nan_at) {
    BaseStationAccumulator acc(3);
    Vector red{10.0, 20.0, 30.0};
    red[nan_at] = std::nan("");
    acc.Add(TreeColor::kRed, red);
    acc.Add(TreeColor::kBlue, {10.0, 21.0, 30.0});
    const auto decision = acc.Decide(5.0);
    EXPECT_FALSE(decision.accepted) << nan_at;
    EXPECT_TRUE(std::isnan(decision.max_component_diff)) << nan_at;
  }
}

TEST(BaseStation, InfiniteTotalsRejected) {
  const double inf = std::numeric_limits<double>::infinity();
  BaseStationAccumulator both(1);
  both.Add(TreeColor::kRed, {inf});
  both.Add(TreeColor::kBlue, {inf});
  const auto same = both.Decide(5.0);
  EXPECT_FALSE(same.accepted);  // inf - inf is NaN.
  EXPECT_TRUE(std::isnan(same.max_component_diff));

  BaseStationAccumulator one(1);
  one.Add(TreeColor::kRed, {inf});
  one.Add(TreeColor::kBlue, {10.0});
  const auto lopsided = one.Decide(5.0);
  EXPECT_FALSE(lopsided.accepted);
  EXPECT_EQ(lopsided.max_component_diff, inf);
}

TEST(BaseStation, AddingBothColorAborts) {
  BaseStationAccumulator acc(1);
  EXPECT_DEATH(acc.Add(TreeColor::kBoth, {1.0}), "CHECK failed");
}

TEST(IpdaConfigValidation, CatchesBadParameters) {
  IpdaConfig config;
  EXPECT_TRUE(ValidateIpdaConfig(config).ok());
  config.slice_count = 0;
  EXPECT_FALSE(ValidateIpdaConfig(config).ok());
  config = IpdaConfig{};
  config.k = 1;
  EXPECT_FALSE(ValidateIpdaConfig(config).ok());
  config = IpdaConfig{};
  config.threshold = -1.0;
  EXPECT_FALSE(ValidateIpdaConfig(config).ok());
  config = IpdaConfig{};
  config.slice_range = 0.0;
  EXPECT_FALSE(ValidateIpdaConfig(config).ok());
  config = IpdaConfig{};
  config.max_depth = 0;
  EXPECT_FALSE(ValidateIpdaConfig(config).ok());
}

TEST(IpdaConfigValidation, RejectsNonFiniteReals) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -inf}) {
    IpdaConfig config;
    config.threshold = bad;
    EXPECT_FALSE(ValidateIpdaConfig(config).ok()) << "threshold " << bad;
    config = IpdaConfig{};
    config.slice_range = bad;
    EXPECT_FALSE(ValidateIpdaConfig(config).ok()) << "slice_range " << bad;
  }
}

TEST(IpdaConfigTiming, PhasesAreOrdered) {
  IpdaConfig config;
  EXPECT_GT(IpdaSliceStart(config), 0);
  EXPECT_GT(IpdaReportStart(config), IpdaSliceStart(config));
  EXPECT_GT(IpdaDuration(config), IpdaReportStart(config));
}

}  // namespace
}  // namespace ipda::agg
