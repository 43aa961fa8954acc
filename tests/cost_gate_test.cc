// Deterministic cost gate (ROADMAP item 3): the scheduler, channel and
// key-schedule work of one round, counted, never timed. For fixed seeds of
// three configs — the paper's N=600 point, the faulted/churning N=300
// sweep cell, and the 4-sink N=2000 sharded round — the counters below
// must equal the committed baseline in tests/golden/cost_counters.csv.
//
// Any increase fails: the simulator got more expensive. A decrease fails
// too, so that a change which makes rounds cheaper rewrites the baseline
// in the same commit (and records the before/after figures):
//   IPDA_UPDATE_GOLDEN=1 ./tests/cost_gate_test
// sim.dispatch_digest is not a cost but a fingerprint of dispatch order;
// it must match exactly, so a queue change that reorders events fails.
// Wall-clock time never enters this gate; roundbench measures it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "agg/shard/sharded.h"
#include "fault/churn_plan.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"

#ifndef IPDA_GOLDEN_DIR
#error "IPDA_GOLDEN_DIR must point at tests/golden"
#endif

namespace ipda {
namespace {

constexpr char kBaseline[] = "cost_counters.csv";

// One column of the gate. Counters sum over shards; gauges are
// capacities, and shards run one after another, so their peak is the max.
struct Column {
  const char* name;
  bool gauge;
};
const Column kColumns[] = {
    {"sim.events_run", false},
    {"net.frames_sent", false},
    {"net.frames_delivered", false},
    {"net.frames_collided", false},
    {"pool.arena_allocs", false},
    // The near heap (MAC timers); the far heap (phase timers) is the last
    // column.
    {"sim.sched_heap_capacity", true},
    // Key work: one cipher-schedule expansion per link end that seals or
    // opens (plus one per message on links keyed mid-round), not two per
    // topology edge.
    {"crypto.schedules_built", false},
    // Summed mod 2^64 over shards.
    {"sim.dispatch_digest", false},
    {"sim.sched_far_capacity", true},
};

using Row = std::map<std::string, uint64_t>;

// Exact: a digest does not survive Snapshot::CounterOr's double.
uint64_t CounterValue(const obs::Snapshot& snapshot, std::string_view name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) return value;
  }
  return 0;
}

void AddSnapshot(const obs::Snapshot& snapshot, Row& row) {
  for (const Column& column : kColumns) {
    uint64_t& cell = row[column.name];
    if (column.gauge) {
      cell = std::max(
          cell, static_cast<uint64_t>(snapshot.GaugeOr(column.name, 0)));
    } else {
      cell += CounterValue(snapshot, column.name);
    }
  }
}

// The paper's §IV deployment: 400×400 m, 50 m range, 1 Mbps.
agg::RunConfig PaperConfig(size_t nodes, uint64_t seed) {
  agg::RunConfig config;
  config.deployment.area = net::Area{400.0, 400.0};
  config.deployment.node_count = nodes;
  config.range = 50.0;
  config.phy.data_rate_bps = 1e6;
  config.seed = seed;
  return config;
}

agg::IpdaConfig PaperIpda() {
  agg::IpdaConfig config;
  config.slice_count = 2;
  config.slice_range = 1.0;
  return config;
}

// iPDA COUNT, l = 2, N = 600 (roundbench's paper_n600).
Row PaperRow() {
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  auto run = agg::RunIpda(PaperConfig(600, 600001), *function, *field,
                          PaperIpda());
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  Row row;
  if (run.ok()) AddSnapshot(run->metrics, row);
  return row;
}

// N = 300 under crashes, link loss and churn, with slice retargeting,
// parent failover and churn repair (roundbench's sweep_faults_churn_n300).
Row SweepRow() {
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  agg::RunConfig config = PaperConfig(300, 300001);
  auto faults = fault::ParseFaultSpec("crash-frac=0.05@4.4,loss=0.05");
  auto churn = fault::ParseChurnSpec("churn=0.5:1,mobility=0.25:10");
  EXPECT_TRUE(faults.ok() && churn.ok());
  if (!faults.ok() || !churn.ok()) return {};
  config.faults = *faults;
  config.churn = *churn;
  agg::IpdaConfig ipda = PaperIpda();
  ipda.retarget_slices = true;
  ipda.parent_failover = true;
  ipda.churn_response = agg::ChurnResponse::kRepair;
  auto run = agg::RunIpda(config, *function, *field, ipda);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  Row row;
  if (run.ok()) AddSnapshot(run->metrics, row);
  return row;
}

// The ipda_n2000_s4 golden's config (golden_scale_test), seed 1.
Row ShardedRow() {
  constexpr size_t kNodes = 2000;
  const double side = 400.0 * std::sqrt(static_cast<double>(kNodes) / 400.0);
  agg::RunConfig config;
  config.deployment.node_count = kNodes;
  config.deployment.area = net::Area{side, side};
  config.seed = 1;
  auto function = agg::MakeSum();
  auto field = agg::MakeUniformField(15.0, 30.0, 42);
  agg::ShardedConfig sharded;
  sharded.sinks = 4;
  auto run = agg::RunShardedIpda(config, *function, *field, {}, sharded);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  Row row;
  if (!run.ok()) return row;
  for (const agg::ShardOutcome& shard : run->shards) {
    AddSnapshot(shard.metrics, row);
  }
  return row;
}

std::vector<std::string> Columns() {
  std::vector<std::string> columns;
  for (const Column& column : kColumns) columns.push_back(column.name);
  return columns;
}

std::string Csv(const std::vector<std::pair<std::string, Row>>& rows) {
  std::string csv = "config";
  for (const std::string& column : Columns()) {
    csv += ',';
    csv += column;
  }
  csv += '\n';
  for (const auto& [name, row] : rows) {
    csv += name;
    for (const std::string& column : Columns()) {
      csv += ',';
      csv += std::to_string(row.at(column));
    }
    csv += '\n';
  }
  return csv;
}

// config name -> column -> value.
std::map<std::string, Row> ParseCsv(const std::string& text) {
  std::map<std::string, Row> out;
  std::istringstream in(text);
  std::string line;
  std::getline(in, line);  // Header: same column order as Columns().
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::getline(fields, name, ',');
    Row& row = out[name];
    for (const std::string& column : Columns()) {
      std::string value;
      std::getline(fields, value, ',');
      row[column] = std::strtoull(value.c_str(), nullptr, 10);
    }
  }
  return out;
}

TEST(CostGate, CountersMatchCommittedBaseline) {
  const std::vector<std::pair<std::string, Row>> rows = {
      {"paper_n600_seed600001", PaperRow()},
      {"sweep_faults_churn_n300_seed300001", SweepRow()},
      {"ipda_n2000_s4_seed1", ShardedRow()},
  };
  ASSERT_FALSE(::testing::Test::HasFailure());
  const std::string actual = Csv(rows);
  const std::string path = std::string(IPDA_GOLDEN_DIR) + "/" + kBaseline;
  if (std::getenv("IPDA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "baseline updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing baseline " << path;
  std::ostringstream text;
  text << in.rdbuf();
  const std::map<std::string, Row> baseline = ParseCsv(text.str());
  for (const auto& [name, row] : rows) {
    ASSERT_TRUE(baseline.count(name)) << name << " missing from " << path;
    for (const std::string& column : Columns()) {
      const uint64_t want = baseline.at(name).at(column);
      const uint64_t got = row.at(column);
      EXPECT_LE(got, want) << name << " " << column << " rose from " << want
                           << " to " << got;
      EXPECT_GE(got, want)
          << name << " " << column << " fell from " << want << " to "
          << got << ": rewrite the baseline with IPDA_UPDATE_GOLDEN=1 and "
          << "record the before/after figures";
    }
  }
}

}  // namespace
}  // namespace ipda
