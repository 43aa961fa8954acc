// Integration tests for the observability layer (DESIGN.md §11): golden
// metrics-JSONL fixtures, snapshot/traffic reconciliation, and the
// thread-independence that makes `--metrics` files byte-identical for
// any --jobs value.
//
// Regenerate the fixtures after an *intentional* behavior change with
//   IPDA_UPDATE_GOLDEN=1 ./tests/obs_run_metrics_test

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
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

util::Result<agg::IpdaRunResult> GoldenRun(uint64_t seed, bool with_faults) {
  auto function = agg::MakeSum();
  auto field = agg::MakeUniformField(15.0, 30.0, 42);
  agg::RunConfig config = GoldenConfig(seed);
  agg::IpdaConfig ipda;
  if (with_faults) {
    auto plan =
        fault::ParseFaultSpec("crash-frac=0.15@0.05,loss=0.05,dup=0.01");
    if (!plan.ok()) return plan.status();
    config.faults = *plan;
    ipda.retarget_slices = true;
    ipda.parent_failover = true;
  }
  return agg::RunIpda(config, *function, *field, ipda);
}

// The full metrics file a sweep over kSeeds would emit: header plus one
// canonical JSONL record per run. Byte-compared against the fixture.
std::string MetricsJsonl(bool with_faults) {
  std::string out = obs::MetricsHeaderLine("obs_run_metrics_test",
                                           std::size(kSeeds), kSeeds[0]);
  uint64_t run = 0;
  for (uint64_t seed : kSeeds) {
    auto result = GoldenRun(seed, with_faults);
    if (!result.ok()) return "run failed: " + result.status().ToString();
    out += obs::SnapshotJsonLine(result->metrics, run++, seed);
  }
  return out;
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
      << "metrics drifted from " << path
      << " — if the change is intentional, regenerate with "
         "IPDA_UPDATE_GOLDEN=1 and commit the diff";
}

TEST(GoldenMetrics, IpdaCleanRounds) {
  CheckGolden("ipda_n60_metrics.jsonl", MetricsJsonl(/*with_faults=*/false));
}

TEST(GoldenMetrics, IpdaFaultyRounds) {
  CheckGolden("ipda_n60_faults_metrics.jsonl",
              MetricsJsonl(/*with_faults=*/true));
}

// Every fixture line must parse back through the public reader — the
// format metrics_report consumes is exactly what the runs emit.
TEST(GoldenMetrics, FixtureRoundTripsThroughParser) {
  const std::string jsonl = MetricsJsonl(/*with_faults=*/true);
  std::istringstream lines(jsonl);
  std::string line;
  size_t records = 0;
  while (std::getline(lines, line)) {
    obs::ParsedLine parsed;
    std::string error;
    ASSERT_TRUE(obs::ParseMetricsLine(line, parsed, &error)) << error;
    ++records;
  }
  EXPECT_EQ(records, 1 + std::size(kSeeds));  // Header + one per run.
}

// The snapshot is the run's traffic record, not a parallel bookkeeping
// system: its counters must equal the CounterBoard totals and the
// protocol stats the run already reports.
TEST(RunMetrics, SnapshotReconcilesWithTrafficAndStats) {
  auto run = GoldenRun(kSeeds[0], /*with_faults=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const obs::Snapshot& m = run->metrics;
  const net::NodeCounters& t = run->traffic;

  EXPECT_EQ(m.CounterOr("net.bytes_sent", -1),
            static_cast<double>(t.bytes_sent));
  EXPECT_EQ(m.CounterOr("net.frames_sent", -1),
            static_cast<double>(t.frames_sent));
  EXPECT_EQ(m.CounterOr("net.injected_drops", -1),
            static_cast<double>(t.injected_drops));
  // The fig7_overhead identity: protocol traffic = sent minus MAC ACKs.
  EXPECT_EQ(m.CounterOr("net.protocol_bytes", -1),
            static_cast<double>(t.bytes_sent - t.ack_bytes_sent));
  EXPECT_EQ(m.CounterOr("net.protocol_frames", -1),
            static_cast<double>(t.frames_sent - t.ack_frames_sent));

  EXPECT_EQ(m.CounterOr("agg.participants", -1),
            static_cast<double>(run->stats.participants));
  EXPECT_EQ(m.CounterOr("agg.slices_retargeted", -1),
            static_cast<double>(run->stats.slices_retargeted));
  EXPECT_EQ(m.GaugeOr("agg.accepted", -1),
            run->stats.decision.accepted ? 1.0 : 0.0);

  // A faulty round exercises crypto and the injector; the instruments
  // must be live, not zero-filled placeholders.
  EXPECT_GT(m.CounterOr("crypto.ctr_blocks_batched", 0), 0.0);
  EXPECT_GT(m.CounterOr("fault.crashes", -1), 0.0);
  EXPECT_GT(m.CounterOr("sim.events_run", 0), 0.0);

  // The five iPDA phase spans, in schedule order, covering the round
  // from time zero with no gaps.
  ASSERT_EQ(m.spans.size(), 5u);
  EXPECT_EQ(m.spans[0].name, "query.dissemination");
  EXPECT_EQ(m.spans[4].name, "verification");
  EXPECT_EQ(m.spans[0].begin_ns, 0);
  for (size_t i = 1; i < m.spans.size(); ++i) {
    EXPECT_EQ(m.spans[i].begin_ns, m.spans[i - 1].end_ns) << "gap at " << i;
  }
}

// --jobs byte-identity reduces to this: the same run on a different
// thread (fresh thread_local crypto tallies, different accumulated
// baseline) must serialize the identical snapshot.
TEST(RunMetrics, SnapshotIsThreadIndependent) {
  auto main_run = GoldenRun(kSeeds[1], /*with_faults=*/false);
  ASSERT_TRUE(main_run.ok()) << main_run.status().ToString();
  const std::string main_json =
      obs::SnapshotJsonLine(main_run->metrics, 0, kSeeds[1]);

  std::string worker_json;
  std::thread worker([&worker_json] {
    // Unrelated prior crypto work on this thread must not leak into the
    // run's delta-based crypto counters.
    auto warmup = GoldenRun(kSeeds[2], /*with_faults=*/false);
    ASSERT_TRUE(warmup.ok()) << warmup.status().ToString();
    auto run = GoldenRun(kSeeds[1], /*with_faults=*/false);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    worker_json = obs::SnapshotJsonLine(run->metrics, 0, kSeeds[1]);
  });
  worker.join();
  EXPECT_EQ(main_json, worker_json);
}

// Collecting metrics is observation, not participation: repeating a run
// with the registry already exercised produces identical protocol output
// (this is the golden-trace "metrics on/off" invariant in unit form).
TEST(RunMetrics, CollectionDoesNotPerturbResults) {
  auto a = GoldenRun(kSeeds[0], /*with_faults=*/true);
  auto b = GoldenRun(kSeeds[0], /*with_faults=*/true);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->result, b->result);
  EXPECT_EQ(a->traffic.bytes_sent, b->traffic.bytes_sent);
  EXPECT_EQ(obs::SnapshotJsonLine(a->metrics, 0, kSeeds[0]),
            obs::SnapshotJsonLine(b->metrics, 0, kSeeds[0]));
}

}  // namespace
}  // namespace ipda
