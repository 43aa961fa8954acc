// City-scale golden fixtures (DESIGN.md §13): N=2000 rounds at the
// paper's deployment density, single-sink and 4-sink sharded, must
// reproduce tests/golden/ipda_n2000*.csv byte for byte — and produce the
// SAME bytes whether the runs execute on 1 engine thread or 8. This pins
// the spatial-hash build, the SoA node state, and the shard merge to the
// engine's jobs-independence contract at a size where the old O(N²)
// paths would actually matter.
//
// Regenerate after an intentional behavior change with
//   IPDA_UPDATE_GOLDEN=1 ./tests/golden_scale_test

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "agg/shard/sharded.h"
#include "exp/engine.h"

#ifndef IPDA_GOLDEN_DIR
#error "IPDA_GOLDEN_DIR must point at tests/golden"
#endif

namespace ipda {
namespace {

constexpr size_t kNodes = 2000;
constexpr uint64_t kSeeds[] = {1, 2};

// Constant density: the paper deploys 400 nodes on a 400 m square, so
// N=2000 gets side 400·√(N/400) ≈ 894.4 m.
double AreaSide() {
  return 400.0 * std::sqrt(static_cast<double>(kNodes) / 400.0);
}

agg::RunConfig ScaleConfig(uint64_t seed) {
  agg::RunConfig config;
  config.deployment.node_count = kNodes;
  config.deployment.area = net::Area{AreaSide(), AreaSide()};
  config.seed = seed;
  return config;
}

// One run → one CSV row.
std::string TraceRow(uint64_t seed, size_t sinks,
                     const agg::AggregateFunction& function,
                     const agg::SensorField& field) {
  agg::RunConfig config = ScaleConfig(seed);
  char buf[256];
  if (sinks <= 1) {
    auto run = agg::RunIpda(config, function, field);
    if (!run.ok()) return "run failed: " + run.status().ToString();
    std::snprintf(buf, sizeof(buf), "%llu,%.6f,%.6f,%.6f,%d,%d,%zu,%llu\n",
                  static_cast<unsigned long long>(seed), run->result,
                  function.Finalize(run->true_acc), run->accuracy,
                  run->stats.decision.accepted ? 1 : 0,
                  run->stats.degraded ? 1 : 0, run->stats.participants,
                  static_cast<unsigned long long>(run->traffic.bytes_sent));
  } else {
    agg::ShardedConfig sharded;
    sharded.sinks = sinks;
    auto run = agg::RunShardedIpda(config, function, field, {}, sharded);
    if (!run.ok()) return "run failed: " + run.status().ToString();
    size_t participants = 0;
    for (const agg::ShardOutcome& s : run->shards) {
      participants += s.stats.participants;
    }
    std::snprintf(buf, sizeof(buf), "%llu,%.6f,%.6f,%.6f,%d,%d,%zu,%llu\n",
                  static_cast<unsigned long long>(seed), run->result,
                  function.Finalize(run->true_acc), run->accuracy,
                  run->decision.accepted ? 1 : 0, run->degraded ? 1 : 0,
                  participants,
                  static_cast<unsigned long long>(run->traffic.bytes_sent));
  }
  return std::string(buf);
}

// Each seed's row lands in its own slot, so the jobs 1 vs 8 comparison
// runs the seeds on concurrent threads.
std::string TraceRows(exp::Engine& engine, size_t sinks) {
  auto function = agg::MakeSum();
  auto field = agg::MakeUniformField(15.0, 30.0, 42);
  std::vector<std::string> rows(std::size(kSeeds));
  engine.ParallelFor(rows.size(), [&](size_t i) {
    rows[i] = TraceRow(kSeeds[i], sinks, *function, *field);
  });
  std::string csv =
      "seed,result,truth,accuracy,accepted,degraded,participants,"
      "bytes_sent\n";
  for (const std::string& row : rows) csv += row;
  return csv;
}

std::string JobsIndependentTrace(size_t sinks) {
  exp::Engine one(1);
  exp::Engine eight(8);
  const std::string serial = TraceRows(one, sinks);
  const std::string parallel = TraceRows(eight, sinks);
  EXPECT_EQ(serial, parallel)
      << "jobs=1 and jobs=8 diverged at sinks=" << sinks
      << " — a run is not shared-nothing";
  return serial;
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

TEST(GoldenScale, IpdaN2000SingleSink) {
  CheckGolden("ipda_n2000.csv", JobsIndependentTrace(/*sinks=*/1));
}

TEST(GoldenScale, IpdaN2000FourSinks) {
  CheckGolden("ipda_n2000_s4.csv", JobsIndependentTrace(/*sinks=*/4));
}

}  // namespace
}  // namespace ipda
