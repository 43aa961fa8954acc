// Golden-trace regression tests: fixed-seed rounds must reproduce the
// CSVs committed under tests/golden/ byte for byte. Any change to
// deployment, MAC timing, slicing, fault injection, message encoding, or
// the experiment engine that perturbs a simulation shows up here as a
// one-line diff instead of a silent drift.
//
// Regenerate after an *intentional* behavior change with
//   IPDA_UPDATE_GOLDEN=1 ./tests/golden_trace_test
// and commit the rewritten CSVs alongside the change that explains them.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "fault/churn_plan.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"

#ifndef IPDA_GOLDEN_DIR
#error "IPDA_GOLDEN_DIR must point at tests/golden"
#endif

namespace ipda {
namespace {

constexpr size_t kNodes = 60;
constexpr double kAreaSide = 200.0;
constexpr uint64_t kSeeds[] = {1, 2, 3};

agg::RunConfig GoldenConfig(uint64_t seed) {
  agg::RunConfig config;
  config.deployment.node_count = kNodes;
  config.deployment.area = net::Area{kAreaSide, kAreaSide};
  config.seed = seed;
  return config;
}

void AppendDouble(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  out += buf;
}

// iPDA rounds, optionally under a deterministic fault schedule with the
// PR 1 failure-resilience knobs on.
std::string IpdaTrace(bool with_faults) {
  std::string csv =
      "seed,result,truth,accuracy,accepted,degraded,participants,"
      "covered_both,slices_retargeted,reports_rerouted,bytes_sent,"
      "injected_drops,recoveries\n";
  auto function = agg::MakeSum();
  auto field = agg::MakeUniformField(15.0, 30.0, 42);
  for (uint64_t seed : kSeeds) {
    agg::RunConfig config = GoldenConfig(seed);
    agg::IpdaConfig ipda;
    if (with_faults) {
      auto plan =
          fault::ParseFaultSpec("crash-frac=0.15@0.05,loss=0.05,dup=0.01");
      if (!plan.ok()) return "bad fault spec: " + plan.status().ToString();
      config.faults = *plan;
      ipda.retarget_slices = true;
      ipda.parent_failover = true;
    }
    auto run = agg::RunIpda(config, *function, *field, ipda);
    if (!run.ok()) return "run failed: " + run.status().ToString();
    const auto totals = run->traffic;
    char row[256];
    std::snprintf(row, sizeof(row), "%llu,",
                  static_cast<unsigned long long>(seed));
    csv += row;
    AppendDouble(csv, run->result);
    csv += ',';
    AppendDouble(csv, function->Finalize(run->true_acc));
    csv += ',';
    AppendDouble(csv, run->accuracy);
    std::snprintf(row, sizeof(row), ",%d,%d,%zu,%zu,%zu,%zu,%llu,%llu,%llu\n",
                  run->stats.decision.accepted ? 1 : 0,
                  run->stats.degraded ? 1 : 0, run->stats.participants,
                  run->stats.covered_both, run->stats.slices_retargeted,
                  run->stats.reports_rerouted,
                  static_cast<unsigned long long>(totals.bytes_sent),
                  static_cast<unsigned long long>(totals.injected_drops),
                  static_cast<unsigned long long>(totals.recoveries));
    csv += row;
  }
  return csv;
}

// Small churn scenario (join + move + leave on a 50-node network) under
// the kRepair response: locks down the churn spec grammar, the topology
// patch overlay, and the incremental tree-repair machinery end to end.
std::string IpdaChurnTrace() {
  std::string csv =
      "seed,result,truth,accuracy,accepted,degraded,participants,"
      "joins_absorbed,grafts,disjoint_violations,churn_control_msgs,"
      "bytes_sent\n";
  auto function = agg::MakeSum();
  auto field = agg::MakeUniformField(15.0, 30.0, 42);
  for (uint64_t seed : kSeeds) {
    agg::RunConfig config = GoldenConfig(seed);
    config.deployment.node_count = 50;
    auto churn = fault::ParseChurnSpec(
        "join=5@4.55,move=7:120:120:10@4.3,leave=9@4.7");
    if (!churn.ok()) return "bad churn spec: " + churn.status().ToString();
    config.churn = *churn;
    agg::IpdaConfig ipda;
    ipda.retarget_slices = true;
    ipda.parent_failover = true;
    ipda.churn_response = agg::ChurnResponse::kRepair;
    auto run = agg::RunIpda(config, *function, *field, ipda);
    if (!run.ok()) return "run failed: " + run.status().ToString();
    char row[256];
    std::snprintf(row, sizeof(row), "%llu,",
                  static_cast<unsigned long long>(seed));
    csv += row;
    AppendDouble(csv, run->result);
    csv += ',';
    AppendDouble(csv, function->Finalize(run->true_acc));
    csv += ',';
    AppendDouble(csv, run->accuracy);
    std::snprintf(row, sizeof(row), ",%d,%d,%zu,%zu,%zu,%zu,%zu,%llu\n",
                  run->stats.decision.accepted ? 1 : 0,
                  run->stats.degraded ? 1 : 0, run->stats.participants,
                  run->stats.joins_absorbed, run->stats.grafts,
                  run->stats.disjoint_violations,
                  run->stats.churn_control_msgs,
                  static_cast<unsigned long long>(
                      run->traffic.bytes_sent));
    csv += row;
  }
  return csv;
}

std::string TagTrace() {
  std::string csv = "seed,result,truth,accuracy,joined,bytes_sent\n";
  auto function = agg::MakeSum();
  auto field = agg::MakeUniformField(15.0, 30.0, 42);
  for (uint64_t seed : kSeeds) {
    agg::RunConfig config = GoldenConfig(seed);
    auto run = agg::RunTag(config, *function, *field);
    if (!run.ok()) return "run failed: " + run.status().ToString();
    char row[64];
    std::snprintf(row, sizeof(row), "%llu,",
                  static_cast<unsigned long long>(seed));
    csv += row;
    AppendDouble(csv, run->result);
    csv += ',';
    AppendDouble(csv, function->Finalize(run->true_acc));
    csv += ',';
    AppendDouble(csv, run->accuracy);
    std::snprintf(row, sizeof(row), ",%zu,%llu\n", run->stats.nodes_joined,
                  static_cast<unsigned long long>(run->traffic.bytes_sent));
    csv += row;
  }
  return csv;
}

// Exact: a digest does not survive Snapshot::CounterOr's double.
uint64_t DispatchDigest(const obs::Snapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "sim.dispatch_digest") return value;
  }
  return 0;
}

// One baseline row: the answer and truth to the last bit, tree size,
// traffic, and the simulator's dispatch digest, which pins the order of
// every event the round ran.
template <typename RunResult>
std::string BaselineRow(uint64_t seed, const RunResult& run, double truth) {
  char row[256];
  std::snprintf(row, sizeof(row), "%llu,%.17g,%.17g,%zu,%llu,%llu,%llu\n",
                static_cast<unsigned long long>(seed), run.result, truth,
                run.stats.nodes_joined,
                static_cast<unsigned long long>(run.traffic.frames_sent),
                static_cast<unsigned long long>(run.traffic.bytes_sent),
                static_cast<unsigned long long>(DispatchDigest(run.metrics)));
  return row;
}

constexpr char kBaselineHeader[] =
    "seed,result,truth,nodes_joined,frames_sent,bytes_sent,dispatch_digest\n";

std::string SmartTrace() {
  std::string csv = kBaselineHeader;
  auto function = agg::MakeSum();
  auto field = agg::MakeUniformField(15.0, 30.0, 42);
  for (uint64_t seed : kSeeds) {
    auto run = agg::RunSmart(GoldenConfig(seed), *function, *field);
    if (!run.ok()) return "run failed: " + run.status().ToString();
    csv += BaselineRow(seed, *run, function->Finalize(run->true_acc));
  }
  return csv;
}

std::string CpdaTrace() {
  std::string csv = kBaselineHeader;
  auto function = agg::MakeSum();
  auto field = agg::MakeUniformField(15.0, 30.0, 42);
  for (uint64_t seed : kSeeds) {
    auto run = agg::RunCpda(GoldenConfig(seed), *function, *field);
    if (!run.ok()) return "run failed: " + run.status().ToString();
    csv += BaselineRow(seed, *run, function->Finalize(run->true_acc));
  }
  return csv;
}

std::string KipdaTrace() {
  std::string csv = kBaselineHeader;
  auto field = agg::MakeUniformField(15.0, 30.0, 42);
  for (uint64_t seed : kSeeds) {
    auto run = agg::RunKipda(GoldenConfig(seed), *field);
    if (!run.ok()) return "run failed: " + run.status().ToString();
    csv += BaselineRow(seed, *run, run->true_acc[0]);
  }
  return csv;
}

void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(IPDA_GOLDEN_DIR) + "/" + name;
  if (std::getenv("IPDA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(out.good()) << "write failed for " << path;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — regenerate with IPDA_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "trace drifted from " << path
      << " — if the change is intentional, regenerate with "
         "IPDA_UPDATE_GOLDEN=1 and commit the diff";
}

TEST(GoldenTrace, IpdaCleanRounds) {
  CheckGolden("ipda_n60.csv", IpdaTrace(/*with_faults=*/false));
}

TEST(GoldenTrace, IpdaFaultyRounds) {
  CheckGolden("ipda_n60_faults.csv", IpdaTrace(/*with_faults=*/true));
}

TEST(GoldenTrace, IpdaChurnRounds) {
  CheckGolden("ipda_n50_churn.csv", IpdaChurnTrace());
}

TEST(GoldenTrace, TagCleanRounds) {
  CheckGolden("tag_n60.csv", TagTrace());
}

TEST(GoldenTrace, SmartCleanRounds) {
  CheckGolden("smart_n60.csv", SmartTrace());
}

TEST(GoldenTrace, CpdaCleanRounds) {
  CheckGolden("cpda_n60.csv", CpdaTrace());
}

TEST(GoldenTrace, KipdaCleanRounds) {
  CheckGolden("kipda_n60.csv", KipdaTrace());
}

}  // namespace
}  // namespace ipda
