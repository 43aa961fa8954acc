// The experiment engine's determinism contract (exp/engine.h): identical
// output for any --jobs value, including under fault injection. These
// tests run the same work at jobs=1 and jobs=8 — on the engine directly
// and through the resilient sweep executor every bench uses — and
// require bit-equal results, so any scheduling leak into seeds or
// collection order fails loudly rather than skewing a table by a
// fraction of a percent.

#include "exp/engine.h"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "exp/resilient.h"
#include "fault/fault_plan.h"
#include "util/random.h"

namespace ipda::exp {
namespace {

TEST(DeriveRunSeed, ForksOnEveryInput) {
  const uint64_t base = DeriveRunSeed(1, "point", 0);
  EXPECT_NE(base, DeriveRunSeed(2, "point", 0));    // Sweep seed.
  EXPECT_NE(base, DeriveRunSeed(1, "point2", 0));   // Label.
  EXPECT_NE(base, DeriveRunSeed(1, "point", 1));    // Run index.
  // Stable across calls — a pure function, not a stateful stream.
  EXPECT_EQ(base, DeriveRunSeed(1, "point", 0));
}

TEST(DeriveRunSeed, IndependentOfEnumerationOrder) {
  // Seeds are addressed, not drawn: enumerating runs backwards or
  // skipping points must yield the same per-run seed.
  std::vector<uint64_t> forward, backward;
  for (uint64_t r = 0; r < 16; ++r) {
    forward.push_back(DeriveRunSeed(7, "N=400", r));
  }
  for (uint64_t r = 16; r > 0; --r) {
    backward.push_back(DeriveRunSeed(7, "N=400", r - 1));
  }
  for (size_t r = 0; r < forward.size(); ++r) {
    EXPECT_EQ(forward[r], backward[forward.size() - 1 - r]);
  }
}

TEST(ResolveJobs, ZeroMeansAllHardwareThreads) {
  EXPECT_GE(ResolveJobs(0), 1u);
  EXPECT_EQ(ResolveJobs(1), 1u);
  EXPECT_EQ(ResolveJobs(5), 5u);
  EXPECT_GE(ResolveJobs(-3), 1u);  // Nonsense clamps, never zero.
}

// The map pattern every sweep uses: each index writes its result to slot
// i of a preallocated vector, and the slots come out in index order.
TEST(Engine, MapPreservesIndexOrder) {
  const Engine engine(8);
  for (size_t count : {0u, 1u, 7u, 64u, 1000u}) {
    std::vector<size_t> out(count);
    engine.ParallelFor(count, [&](size_t i) { out[i] = i * i + 1; });
    for (size_t i = 0; i < count; ++i) EXPECT_EQ(out[i], i * i + 1);
  }
}

TEST(Engine, EveryIndexRunsExactlyOnce) {
  const Engine engine(8);
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  engine.ParallelFor(kCount, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// Exactly once also for counts below, at and above the thread count.
TEST(Engine, ParallelForCoversSparseAndDenseCounts) {
  constexpr size_t kJobs = 4;
  const Engine engine(kJobs);
  for (size_t count : {size_t{0}, size_t{1}, kJobs - 1, kJobs, kJobs + 1,
                       size_t{1023}}) {
    std::vector<std::atomic<int>> hits(count);
    engine.ParallelFor(count, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "count=" << count << " i=" << i;
    }
  }
}

TEST(Engine, ParallelForReusableAcrossManyCalls) {
  // Back-to-back calls on one engine: each sees every index of its own
  // count and nothing of the call before it.
  const Engine engine(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    engine.ParallelFor(64, [&](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 64u * 63u / 2u) << "round=" << round;
  }
}

// jobs == 1 starts no thread: timed serial batches rely on every run
// sharing the caller's thread.
TEST(Engine, SingleJobRunsOnCallingThread) {
  const Engine engine(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(100);
  engine.ParallelFor(ran_on.size(), [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

// An exception thrown on a helper thread must not end the program. The
// calling thread holds its first index until a helper has thrown.
TEST(Engine, ParallelForRethrowsOnCallingThread) {
  const Engine engine(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> thrown{false};
  const auto fn = [&](size_t) {
    if (std::this_thread::get_id() != caller) {
      thrown = true;
      throw std::runtime_error("helper");
    }
    while (!thrown) std::this_thread::yield();
  };
  EXPECT_THROW(engine.ParallelFor(1000, fn), std::runtime_error);
}

// CPU-bound mixing loop with per-index result; uneven per-item cost makes
// threads finish out of index order, so slot collection is genuinely
// exercised.
uint64_t MixWork(size_t i) {
  uint64_t h = 0x9E3779B97F4A7C15ull ^ i;
  const size_t iters = 100 + (i % 17) * 300;
  for (size_t k = 0; k < iters; ++k) h = util::Mix64(h, k);
  return h;
}

std::vector<uint64_t> MixAll(size_t jobs) {
  std::vector<uint64_t> out(512);
  Engine(jobs).ParallelFor(out.size(),
                           [&](size_t i) { out[i] = MixWork(i); });
  return out;
}

TEST(Engine, JobsCountNeverChangesResults) {
  const std::vector<uint64_t> expected = MixAll(1);
  for (size_t jobs : {2u, 3u, 8u}) {
    EXPECT_EQ(MixAll(jobs), expected) << "jobs=" << jobs;
  }
}

// A full simulation outcome, compared bit-for-bit across jobs counts.
struct RunOutcome {
  bool ok = false;
  double result = 0.0;
  double accuracy = 0.0;
  uint64_t bytes = 0;
  uint64_t injected_drops = 0;
  size_t participants = 0;
  bool accepted = false;
  bool degraded = false;

  bool operator==(const RunOutcome&) const = default;
};

// Two points x 4 runs through the resilient executor (no journal); each
// body writes only its own flat slot, so the vector is in grid order.
std::vector<RunOutcome> SweepWithJobs(size_t jobs, bool with_faults) {
  Engine engine(jobs);
  const size_t nodes[] = {50, 70};
  const std::vector<std::string> labels = {"N=50", "N=70"};
  fault::FaultPlan plan;
  if (with_faults) {
    auto parsed = fault::ParseFaultSpec("crash-frac=0.2@0.05,loss=0.05");
    if (!parsed.ok()) return {};
    plan = *parsed;
  }
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  agg::IpdaConfig ipda;
  ipda.retarget_slices = with_faults;
  ipda.parent_failover = with_faults;
  ResilientOptions options;
  options.sweep_seed = 0x5EED;
  options.drain_on_signal = false;
  std::vector<RunOutcome> outcomes(labels.size() * 4);
  const auto report = RunResilientSweep(
      engine, labels, 4, options,
      [&](const AttemptContext& ctx) -> util::Result<std::string> {
        agg::RunConfig config;
        config.deployment.node_count = nodes[ctx.point];
        config.deployment.area = net::Area{200.0, 200.0};
        config.faults = plan;
        config.seed = ctx.seed;
        IPDA_ASSIGN_OR_RETURN(const agg::IpdaRunResult run,
                              agg::RunIpda(config, *function, *field, ipda));
        RunOutcome& out = outcomes[ctx.point * 4 + ctx.run];
        out.result = run.result;
        out.accuracy = run.accuracy;
        out.bytes = run.traffic.bytes_sent;
        out.injected_drops = run.traffic.injected_drops;
        out.participants = run.stats.participants;
        out.accepted = run.stats.decision.accepted;
        out.degraded = run.stats.degraded;
        out.ok = true;
        return std::string();
      });
  if (!report.ok()) return {};
  return outcomes;
}

TEST(Engine, SimulationSweepIdenticalAcrossJobs) {
  const auto serial = SweepWithJobs(1, /*with_faults=*/false);
  const auto parallel = SweepWithJobs(8, /*with_faults=*/false);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  for (const auto& run : serial) EXPECT_TRUE(run.ok);
}

TEST(Engine, FaultInjectedSweepIdenticalAcrossJobs) {
  // Fault injection draws from the simulation seed, so injected drops
  // and crash sets must also be scheduling-independent.
  const auto serial = SweepWithJobs(1, /*with_faults=*/true);
  const auto parallel = SweepWithJobs(8, /*with_faults=*/true);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  uint64_t drops = 0;
  for (const auto& run : serial) {
    EXPECT_TRUE(run.ok);
    drops += run.injected_drops;
  }
  EXPECT_GT(drops, 0u) << "fault plan should actually injure the runs";
}

// Attempt-0 seeds are DeriveRunSeed(sweep seed, point label, run): the
// addressing that makes every sweep --jobs independent.
TEST(Engine, ResilientSweepSetsDerivedSeeds) {
  Engine engine(4);
  const std::vector<std::string> labels = {"a", "b"};
  ResilientOptions options;
  options.sweep_seed = 99;
  options.drain_on_signal = false;
  const auto report = RunResilientSweep(
      engine, labels, 3, options,
      [](const AttemptContext& ctx) -> util::Result<std::string> {
        return std::to_string(ctx.seed);
      });
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->runs.size(), 6u);
  for (size_t p = 0; p < 2; ++p) {
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(report->runs[p * 3 + r].payload,
                std::to_string(DeriveRunSeed(99, labels[p], r)));
    }
  }
}

// The report is point-major (index = point * runs + run) whatever order
// the threads finished the runs in.
TEST(Engine, ResilientSweepReportFollowsPointOrder) {
  Engine engine(4);
  ResilientOptions options;
  options.drain_on_signal = false;
  const auto report = RunResilientSweep(
      engine, {"x", "y", "z"}, 5, options,
      [](const AttemptContext& ctx) -> util::Result<std::string> {
        return std::to_string(ctx.point) + ":" + std::to_string(ctx.run);
      });
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->runs.size(), 15u);
  for (size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(report->runs[i].payload,
              std::to_string(i / 5) + ":" + std::to_string(i % 5));
  }
}

}  // namespace
}  // namespace ipda::exp
