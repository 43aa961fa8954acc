#include "agg/runner.h"

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/shard/sharded.h"
#include "fault/churn_plan.h"
#include "fault/fault_plan.h"

namespace ipda::agg {
namespace {

TEST(Runner, TopologyDeterministicPerSeed) {
  RunConfig config;
  config.deployment.node_count = 100;
  config.seed = 9;
  auto a = BuildRunTopology(config);
  auto b = BuildRunTopology(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->node_count(), b->node_count());
  for (net::NodeId id = 0; id < a->node_count(); ++id) {
    EXPECT_EQ(a->x(id), b->x(id)) << id;
    EXPECT_EQ(a->y(id), b->y(id)) << id;
  }
  config.seed = 10;
  auto c = BuildRunTopology(config);
  ASSERT_TRUE(c.ok());
  bool moved = false;
  for (net::NodeId id = 0; id < a->node_count(); ++id) {
    moved = moved || a->x(id) != c->x(id) || a->y(id) != c->y(id);
  }
  EXPECT_TRUE(moved);
}

TEST(Runner, TopologyValidationPropagates) {
  RunConfig config;
  config.deployment.node_count = 1;  // Invalid.
  EXPECT_FALSE(BuildRunTopology(config).ok());
  config.deployment.node_count = 100;
  config.range = 0.0;
  EXPECT_FALSE(BuildRunTopology(config).ok());
}

TEST(Runner, AccuracyRatioEdgeCases) {
  EXPECT_EQ(AccuracyRatio({50.0}, {100.0}), 0.5);
  EXPECT_EQ(AccuracyRatio({1.0}, {0.0}), 0.0);
  EXPECT_EQ(AccuracyRatio({}, {}), 0.0);
}

TEST(Runner, TrueAccumulatorExcludesBaseStation) {
  RunConfig config;
  config.deployment.node_count = 150;
  config.seed = 77;
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto result = RunTag(config, *function, *field);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->true_acc[0], 149.0);  // Sensors only.
}

TEST(Runner, HistogramThroughIpda) {
  // The whole distribution aggregates privately: slicing operates on the
  // bucket-count vector like any other contribution.
  RunConfig config;
  config.deployment.node_count = 400;
  config.seed = 31;
  auto function = MakeHistogram(10.0, 30.0, 4);
  auto field = MakeUniformField(10.0, 30.0, 123);
  IpdaConfig ipda;
  ipda.slice_count = 2;
  ipda.slice_range = 1.0;
  auto result = RunIpda(config, *function, *field, ipda);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->stats.decision.accepted);
  const Vector histogram = result->stats.decision.Agreed();
  ASSERT_EQ(histogram.size(), 4u);
  double total = 0.0;
  for (size_t b = 0; b < 4; ++b) {
    total += histogram[b];
    // Uniform readings: each bucket holds about a quarter.
    EXPECT_NEAR(histogram[b], result->true_acc[b], 6.0);
  }
  EXPECT_NEAR(total, static_cast<double>(result->stats.participants),
              1e-6);
}

TEST(Runner, TagAndIpdaAgreeOnTruth) {
  RunConfig config;
  config.deployment.node_count = 300;
  config.seed = 55;
  auto function = MakeSum();
  auto field = MakeUniformField(1.0, 2.0, 5);
  auto tag = RunTag(config, *function, *field);
  auto ipda = RunIpda(config, *function, *field);
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE(ipda.ok());
  // Same seed => same deployment and same readings => same ground truth.
  EXPECT_EQ(tag->true_acc, ipda->true_acc);
  EXPECT_EQ(tag->average_degree, ipda->average_degree);
}

TEST(Runner, TagConfigOverridesApply) {
  RunConfig config;
  config.deployment.node_count = 150;
  config.seed = 60;
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  TagConfig fast;
  fast.slot = sim::Milliseconds(50);
  fast.max_depth = 16;
  auto result = RunTag(config, *function, *field, fast);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->accuracy, 0.8);
}

TEST(Runner, IpdaSeedChangesOutcome) {
  RunConfig config;
  config.deployment.node_count = 250;
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  config.seed = 1;
  auto a = RunIpda(config, *function, *field);
  config.seed = 2;
  auto b = RunIpda(config, *function, *field);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->traffic.bytes_sent, b->traffic.bytes_sent);
}

// Every protocol round goes through one lifecycle, so the guard tests
// below run each Run* helper (and the per-shard rounds of the sharded
// one) on the same inputs.
enum class Protocol { kTag, kSmart, kCpda, kKipda, kIpda, kShardedIpda };
constexpr Protocol kAllProtocols[] = {Protocol::kTag, Protocol::kSmart,
                                      Protocol::kCpda, Protocol::kKipda,
                                      Protocol::kIpda, Protocol::kShardedIpda};

const char* ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kTag: return "tag";
    case Protocol::kSmart: return "smart";
    case Protocol::kCpda: return "cpda";
    case Protocol::kKipda: return "kipda";
    case Protocol::kIpda: return "ipda";
    case Protocol::kShardedIpda: return "sharded ipda";
  }
  return "?";
}

// A COUNT round (MAX for KIPDA, over the same unit readings).
util::Status RunStatus(Protocol protocol, const RunConfig& config) {
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  switch (protocol) {
    case Protocol::kTag:
      return RunTag(config, *function, *field).status();
    case Protocol::kSmart:
      return RunSmart(config, *function, *field).status();
    case Protocol::kCpda:
      return RunCpda(config, *function, *field).status();
    case Protocol::kKipda:
      return RunKipda(config, *field).status();
    case Protocol::kIpda:
      return RunIpda(config, *function, *field).status();
    case Protocol::kShardedIpda:
      return RunShardedIpda(config, *function, *field).status();
  }
  return util::InternalError("unknown protocol");
}

TEST(Runner, EventBudgetTripsIntoUnavailable) {
  // A budget far below what a round needs must surface as a clean
  // Unavailable failure, never a half-aggregated result. The same
  // config and seed trip at the same event on every machine, so this
  // is the deterministic twin of the wall-clock watchdog.
  RunConfig config;
  config.deployment.node_count = 100;
  config.seed = 21;
  config.control.event_budget = 50;
  for (Protocol protocol : kAllProtocols) {
    SCOPED_TRACE(ProtocolName(protocol));
    const util::Status status = RunStatus(protocol, config);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
    EXPECT_NE(status.message().find("event budget"), std::string::npos);
    if (protocol == Protocol::kShardedIpda) {
      // The interrupted shard is named.
      EXPECT_EQ(status.message().rfind("shard 0: ", 0), 0u);
    }
  }
}

TEST(Runner, PreCancelledTokenAbortsBeforeAnyEvent) {
  RunConfig config;
  config.deployment.node_count = 100;
  config.seed = 22;
  sim::CancelToken token;
  token.RequestCancel(sim::CancelReason::kDeadline);
  config.control.cancel = &token;
  for (Protocol protocol : kAllProtocols) {
    SCOPED_TRACE(ProtocolName(protocol));
    const util::Status status = RunStatus(protocol, config);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
    EXPECT_NE(status.message().find("cancelled"), std::string::npos);
    // The reason travels into the message for watchdog diagnostics.
    EXPECT_NE(status.message().find("deadline"), std::string::npos);
  }
}

TEST(Runner, ChurnPlanNeedsChurnHooks) {
  // Only iPDA reacts to churn; any other protocol must refuse the plan
  // rather than run a churn-free round under a churn label.
  RunConfig config;
  config.deployment.node_count = 100;
  config.seed = 24;
  auto churn = fault::ParseChurnSpec("churn=0.5:1");
  ASSERT_TRUE(churn.ok());
  config.churn = *churn;
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto tag = RunTag(config, *function, *field);
  ASSERT_FALSE(tag.ok());
  EXPECT_EQ(tag.status().code(), util::StatusCode::kInvalidArgument);
}

// KIPDA round of the tests below: MAX over uniform readings in [15, 30].
KipdaConfig KipdaMax() {
  KipdaConfig kipda;
  kipda.value_floor = 14.0;
  kipda.value_ceiling = 31.0;
  return kipda;
}

TEST(Runner, KipdaMatchesHandDrivenRound) {
  // Constants measured from the hand-driven loop (own Simulator and
  // default-config Network, no faults) that RunKipda replaced: a
  // fault-free round must reproduce it exactly.
  RunConfig config;
  config.deployment.node_count = 250;
  config.seed = 42;
  auto field = MakeUniformField(15.0, 30.0, 7);
  auto run = RunKipda(config, *field, KipdaMax());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->result, 29.965267015562013);
  EXPECT_EQ(run->traffic.bytes_sent, 40464u);
  EXPECT_EQ(run->true_acc.size(), 1u);
  EXPECT_EQ(run->accuracy, run->result / run->true_acc[0]);
}

TEST(Runner, KipdaHonoursFaultPlan) {
  RunConfig config;
  config.deployment.node_count = 250;
  config.seed = 42;
  auto field = MakeUniformField(15.0, 30.0, 7);
  auto clean = RunKipda(config, *field, KipdaMax());
  auto faults = fault::ParseFaultSpec("crash-frac=0.3@0.5");
  ASSERT_TRUE(faults.ok());
  config.faults = *faults;
  auto crashed = RunKipda(config, *field, KipdaMax());
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
  EXPECT_GT(crashed->metrics.CounterOr("fault.crashes", 0.0), 0.0);
  EXPECT_NE(crashed->traffic.bytes_sent, clean->traffic.bytes_sent);
}

TEST(Runner, DefaultControlRunsToCompletion) {
  // Null token + zero budget is exactly the pre-guard behavior.
  RunConfig config;
  config.deployment.node_count = 100;
  config.seed = 23;
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto result = RunIpda(config, *function, *field);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace
}  // namespace ipda::agg
