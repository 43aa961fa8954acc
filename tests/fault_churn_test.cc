// Churn subsystem: spec parsing with positional diagnostics, the patch
// overlay on net::Topology (detach/attach/move/compact), and the
// determinism contract for seeded churn/mobility processes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/churn_injector.h"
#include "fault/churn_plan.h"
#include "fault/fault_plan.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ipda {
namespace {

std::vector<net::NodeId> NeighborsOf(const net::Topology& topo,
                                     net::NodeId id) {
  const net::NeighborSpan span = topo.neighbors(id);
  return std::vector<net::NodeId>(span.begin(), span.end());
}

// --- ChurnPlan parsing ---

TEST(ChurnPlan, ParsesFullSpec) {
  auto plan = fault::ParseChurnSpec(
      "join=5@4.5,move=7:120:120:10@4.3,leave=9@4.7,churn=0.5:2,"
      "mobility=0.25:10");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->joins.size(), 1u);
  EXPECT_EQ(plan->joins[0].node, 5u);
  EXPECT_EQ(plan->joins[0].at, sim::SecondsF(4.5));
  ASSERT_EQ(plan->moves.size(), 1u);
  EXPECT_EQ(plan->moves[0].node, 7u);
  EXPECT_DOUBLE_EQ(plan->moves[0].to.x, 120.0);
  EXPECT_DOUBLE_EQ(plan->moves[0].to.y, 120.0);
  EXPECT_DOUBLE_EQ(plan->moves[0].speed_mps, 10.0);
  ASSERT_EQ(plan->leaves.size(), 1u);
  EXPECT_EQ(plan->leaves[0].node, 9u);
  EXPECT_DOUBLE_EQ(plan->churn.rate_hz, 0.5);
  EXPECT_EQ(plan->churn.downtime, sim::Seconds(2));
  EXPECT_DOUBLE_EQ(plan->mobility.fraction, 0.25);
  EXPECT_DOUBLE_EQ(plan->mobility.speed_mps, 10.0);
  EXPECT_FALSE(plan->empty());
}

TEST(ChurnPlan, EmptySpecIsEmptyPlan) {
  auto plan = fault::ParseChurnSpec("");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
}

TEST(ChurnPlan, SpecRoundTripsThroughToString) {
  const char* spec = "join=5@4.5,move=7:120:120:10@4.3,leave=9@4.7,"
                     "churn=0.5:2,mobility=0.25:10";
  auto plan = fault::ParseChurnSpec(spec);
  ASSERT_TRUE(plan.ok());
  auto reparsed = fault::ParseChurnSpec(fault::ChurnSpecToString(*plan));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(fault::ChurnSpecToString(*reparsed),
            fault::ChurnSpecToString(*plan));
}

TEST(ChurnPlan, RejectsBadSpecs) {
  EXPECT_FALSE(fault::ParseChurnSpec("join=0@1").ok());  // Base station.
  EXPECT_FALSE(fault::ParseChurnSpec("leave=5").ok());   // No @time.
  EXPECT_FALSE(fault::ParseChurnSpec("join=x@1").ok());
  EXPECT_FALSE(fault::ParseChurnSpec("move=5:10:10@1").ok());  // No speed.
  EXPECT_FALSE(fault::ParseChurnSpec("move=5:10:10:0@1").ok());
  EXPECT_FALSE(fault::ParseChurnSpec("churn=-0.5").ok());
  EXPECT_FALSE(fault::ParseChurnSpec("mobility=1.5:10").ok());
  EXPECT_FALSE(fault::ParseChurnSpec("mobility=0.5").ok());
  EXPECT_FALSE(fault::ParseChurnSpec("teleport=5@1").ok());
}

TEST(ChurnPlan, DiagnosticsCarryDirectiveNumberAndToken) {
  auto plan = fault::ParseChurnSpec("join=5@4.5,leave=abc@2");
  ASSERT_FALSE(plan.ok());
  const std::string message = plan.status().ToString();
  EXPECT_NE(message.find("directive 2"), std::string::npos) << message;
  EXPECT_NE(message.find("abc"), std::string::npos) << message;

  auto unknown = fault::ParseChurnSpec("join=5@4.5,leave=9@2,warp=1@3");
  ASSERT_FALSE(unknown.ok());
  const std::string unknown_message = unknown.status().ToString();
  EXPECT_NE(unknown_message.find("directive 3"), std::string::npos)
      << unknown_message;
  EXPECT_NE(unknown_message.find("warp"), std::string::npos)
      << unknown_message;
}

TEST(ChurnPlan, RejectsDuplicateEvents) {
  EXPECT_FALSE(fault::ParseChurnSpec("join=5@4.5,join=5@4.5").ok());
  EXPECT_FALSE(fault::ParseChurnSpec("leave=5@1,leave=5@1").ok());
  EXPECT_FALSE(fault::ParseChurnSpec("churn=0.5,churn=1.0").ok());
  EXPECT_FALSE(
      fault::ParseChurnSpec("mobility=0.2:5,mobility=0.3:5").ok());
  // Same node at different times is a legal schedule.
  EXPECT_TRUE(fault::ParseChurnSpec("leave=5@1,join=5@2,leave=5@3").ok());
}

// --- FaultPlan diagnostics (S1) ---

TEST(FaultPlanDiagnostics, CarryDirectiveNumberAndToken) {
  auto plan = fault::ParseFaultSpec("crash=5@1,warp=0.5");
  ASSERT_FALSE(plan.ok());
  const std::string message = plan.status().ToString();
  EXPECT_NE(message.find("directive 2"), std::string::npos) << message;
  EXPECT_NE(message.find("warp"), std::string::npos) << message;

  auto bad_value = fault::ParseFaultSpec("loss=0.05,dup=oops");
  ASSERT_FALSE(bad_value.ok());
  const std::string value_message = bad_value.status().ToString();
  EXPECT_NE(value_message.find("directive 2"), std::string::npos)
      << value_message;
  EXPECT_NE(value_message.find("oops"), std::string::npos) << value_message;
}

TEST(FaultPlanDiagnostics, RejectsDuplicateDirectives) {
  EXPECT_FALSE(fault::ParseFaultSpec("crash=5@1,crash=5@1").ok());
  EXPECT_FALSE(fault::ParseFaultSpec("loss=0.05,loss=0.06").ok());
  EXPECT_FALSE(fault::ParseFaultSpec("jitter=2,jitter=3").ok());
  // Same node, different times: legal.
  EXPECT_TRUE(fault::ParseFaultSpec("crash=5@1,recover=5@2,crash=5@3").ok());
}

TEST(FaultPlanDiagnostics, RejectsRecoveryOfNeverCrashedNode) {
  auto plan = fault::ParseFaultSpec("recover=9@2");
  ASSERT_FALSE(plan.ok());
  const std::string message = plan.status().ToString();
  EXPECT_NE(message.find("9"), std::string::npos) << message;

  // crash-frac may crash anyone, so recoveries against it stay legal.
  EXPECT_TRUE(
      fault::ParseFaultSpec("crash-frac=0.1@1,recover=9@2").ok());
  EXPECT_TRUE(fault::ParseFaultSpec("crash=9@1,recover=9@2").ok());
}

// --- Topology patch overlay ---

net::Topology LineTopology() {
  // 0 - 1 - 2 - 3 in a line, 40 m apart, 50 m range: only adjacent
  // nodes link.
  auto topo = net::Topology::Build(
      {{0, 0}, {40, 0}, {80, 0}, {120, 0}}, 50.0);
  EXPECT_TRUE(topo.ok());
  return std::move(*topo);
}

TEST(TopologyChurn, DetachRemovesBothSidesOfEveryEdge) {
  net::Topology topo = LineTopology();
  topo.DetachNode(1);
  EXPECT_FALSE(topo.active(1));
  EXPECT_TRUE(topo.mutated());
  EXPECT_TRUE(topo.neighbors(1).empty());
  EXPECT_EQ(NeighborsOf(topo, 0), std::vector<net::NodeId>{});
  EXPECT_EQ(NeighborsOf(topo, 2), std::vector<net::NodeId>{3});
  EXPECT_FALSE(topo.AreNeighbors(0, 1));
}

TEST(TopologyChurn, AttachRestoresUnitDiskEdges) {
  net::Topology topo = LineTopology();
  topo.DetachNode(1);
  topo.AttachNode(1);
  EXPECT_TRUE(topo.active(1));
  EXPECT_EQ(NeighborsOf(topo, 1), (std::vector<net::NodeId>{0, 2}));
  EXPECT_EQ(NeighborsOf(topo, 0), std::vector<net::NodeId>{1});
  EXPECT_TRUE(topo.AreNeighbors(1, 2));
}

TEST(TopologyChurn, AttachIgnoresDetachedNeighbors) {
  net::Topology topo = LineTopology();
  topo.DetachNode(1);
  topo.DetachNode(2);
  topo.AttachNode(1);
  // 2 is still down, so 1 only regains the edge to 0.
  EXPECT_EQ(NeighborsOf(topo, 1), std::vector<net::NodeId>{0});
  EXPECT_TRUE(topo.neighbors(2).empty());
}

TEST(TopologyChurn, MoveRefreshesEdgeSet) {
  net::Topology topo = LineTopology();
  // Walk node 3 next to node 0: it should drop 2 and gain 0 and 1.
  topo.MoveNode(3, {10, 0});
  EXPECT_EQ(NeighborsOf(topo, 3), (std::vector<net::NodeId>{0, 1}));
  EXPECT_EQ(NeighborsOf(topo, 2), std::vector<net::NodeId>{1});
  EXPECT_DOUBLE_EQ(topo.position(3).x, 10.0);
}

TEST(TopologyChurn, CompactPreservesNeighborSets) {
  net::Topology topo = LineTopology();
  topo.DetachNode(2);
  topo.MoveNode(3, {10, 0});
  std::vector<std::vector<net::NodeId>> before;
  for (net::NodeId id = 0; id < topo.node_count(); ++id) {
    before.push_back(NeighborsOf(topo, id));
  }
  ASSERT_TRUE(topo.mutated());
  topo.Compact();
  EXPECT_FALSE(topo.mutated());
  EXPECT_FALSE(topo.active(2));  // Active flags persist across Compact.
  for (net::NodeId id = 0; id < topo.node_count(); ++id) {
    EXPECT_EQ(NeighborsOf(topo, id), before[id]) << "node " << id;
  }
  // Edges left: 0-1 plus the moved 3's links to 0 and 1.
  EXPECT_DOUBLE_EQ(topo.AverageDegree(), 6.0 / 4.0);
}

// --- ChurnInjector ---

TEST(ChurnInjector, ScheduledEventsFireAndJoinersStartDetached) {
  auto topo = net::Topology::Build({{0, 0}, {40, 0}, {80, 0}}, 50.0);
  ASSERT_TRUE(topo.ok());
  sim::Simulator simulator(7);
  net::Network network(&simulator, std::move(*topo));
  fault::ChurnPlan plan;
  plan.joins.push_back({2, sim::SecondsF(1.0)});
  plan.leaves.push_back({1, sim::SecondsF(2.0)});
  fault::ChurnInjector injector(&simulator, &network.channel(),
                                network.mutable_topology(), plan,
                                net::Area{100, 100}, sim::Seconds(5));
  std::vector<net::NodeId> joined;
  injector.SetJoinListener(
      [&](net::NodeId id) { joined.push_back(id); });
  injector.Arm();
  // Pending joiner is detached before the first event runs.
  EXPECT_FALSE(network.topology().active(2));

  simulator.RunUntil(sim::SecondsF(1.5));
  EXPECT_TRUE(network.topology().active(2));
  EXPECT_EQ(joined, std::vector<net::NodeId>{2});
  EXPECT_TRUE(network.topology().active(1));

  simulator.RunUntil(sim::Seconds(5));
  EXPECT_FALSE(network.topology().active(1));
  EXPECT_EQ(injector.joins_fired(), 1u);
  EXPECT_EQ(injector.leaves_fired(), 1u);
}

TEST(ChurnInjector, WaypointMoveWalksAtConstantSpeed) {
  auto topo = net::Topology::Build({{0, 0}, {40, 0}, {80, 0}}, 50.0);
  ASSERT_TRUE(topo.ok());
  sim::Simulator simulator(7);
  net::Network network(&simulator, std::move(*topo));
  fault::ChurnPlan plan;
  plan.moves.push_back({2, {0, 40}, 20.0, 0});
  fault::ChurnInjector injector(&simulator, &network.channel(),
                                network.mutable_topology(), plan,
                                net::Area{100, 100}, sim::Seconds(10));
  injector.Arm();
  simulator.RunUntil(sim::Seconds(10));
  // The walk covers ~89 m at 20 m/s in quarter-second ticks: it must
  // arrive and stop.
  EXPECT_NEAR(network.topology().position(2).x, 0.0, 1e-9);
  EXPECT_NEAR(network.topology().position(2).y, 40.0, 1e-9);
  EXPECT_GT(injector.move_steps_fired(), 10u);
  // Ended adjacent to both 0 (dist 40) and 1 (dist ~56.6 > 50? no).
  EXPECT_TRUE(network.topology().AreNeighbors(2, 0));
}

struct ChurnTrace {
  std::vector<net::NodeId> victims;
  std::vector<net::NodeId> movers;
  size_t joins = 0, leaves = 0, steps = 0;
  std::vector<double> xs;  // Final coordinates, by node id.
  std::vector<double> ys;
};

ChurnTrace RunSeededChurn(uint64_t seed) {
  util::Rng rng(seed);
  auto topo = net::Topology::RandomGeometric(
      net::DeploymentConfig{net::Area{200, 200}, 40}, 50.0, rng);
  EXPECT_TRUE(topo.ok());
  sim::Simulator simulator(seed);
  net::Network network(&simulator, std::move(*topo));
  fault::ChurnPlan plan;
  plan.churn.rate_hz = 1.0;
  plan.churn.downtime = sim::SecondsF(1.0);
  plan.mobility.fraction = 0.25;
  plan.mobility.speed_mps = 10.0;
  fault::ChurnInjector injector(&simulator, &network.channel(),
                                network.mutable_topology(), plan,
                                net::Area{200, 200}, sim::Seconds(6));
  injector.Arm();
  simulator.RunUntil(sim::Seconds(6));
  ChurnTrace trace;
  trace.victims = injector.churn_victims();
  trace.movers = injector.movers();
  trace.joins = injector.joins_fired();
  trace.leaves = injector.leaves_fired();
  trace.steps = injector.move_steps_fired();
  const net::Topology& topology = network.topology();
  for (net::NodeId id = 0; id < topology.node_count(); ++id) {
    trace.xs.push_back(topology.x(id));
    trace.ys.push_back(topology.y(id));
  }
  return trace;
}

TEST(ChurnInjector, SeededProcessesAreDeterministic) {
  const ChurnTrace a = RunSeededChurn(11);
  const ChurnTrace b = RunSeededChurn(11);
  EXPECT_EQ(a.victims, b.victims);
  EXPECT_EQ(a.movers, b.movers);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.steps, b.steps);
  ASSERT_EQ(a.xs.size(), b.xs.size());
  for (size_t i = 0; i < a.xs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.xs[i], b.xs[i]) << i;
    EXPECT_DOUBLE_EQ(a.ys[i], b.ys[i]) << i;
  }
  EXPECT_GT(a.leaves, 0u);
  EXPECT_GT(a.steps, 0u);

  const ChurnTrace c = RunSeededChurn(12);
  EXPECT_TRUE(a.victims != c.victims || a.movers != c.movers ||
              a.steps != c.steps);
}

}  // namespace
}  // namespace ipda
