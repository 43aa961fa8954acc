// Memory regression guard for city-scale rounds (DESIGN.md §13).
//
// The quadratic trap this pins down: churn-capable rounds used to
// materialize all N(N-1)/2 pairwise keys up front — at N=25k that is
// ~312M Link entries before a single key is stored, an OOM on any
// reasonable box. Keys are now derived lazily on first contact, so a
// city-scale churn round must fit comfortably under a flat ceiling.

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "fault/churn_plan.h"
#include "util/proc.h"

namespace ipda {
namespace {

using util::PeakRssKb;

TEST(ScaleMemory, CityScaleChurnRoundStaysUnderCeiling) {
  const size_t before_kb = PeakRssKb();
  if (before_kb == 0) GTEST_SKIP() << "no /proc/self/status on this OS";

  // N=25k at the paper's density (side = 400·√(N/400) ≈ 3162 m), with the
  // churn response armed — the exact configuration that used to provision
  // all-pairs keys.
  constexpr size_t kNodes = 25000;
  agg::RunConfig config;
  config.deployment.node_count = kNodes;
  const double side = 400.0 * std::sqrt(kNodes / 400.0);
  config.deployment.area = net::Area{side, side};
  config.seed = 1;
  auto churn = fault::ParseChurnSpec("move=7:100:100:10@4.3,leave=9@4.7");
  ASSERT_TRUE(churn.ok());
  config.churn = *churn;

  agg::IpdaConfig ipda;
  ipda.retarget_slices = true;
  ipda.parent_failover = true;
  ipda.churn_response = agg::ChurnResponse::kRepair;

  auto function = agg::MakeSum();
  auto field = agg::MakeUniformField(15.0, 30.0, 42);
  auto run = agg::RunIpda(config, *function, *field, ipda);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // All-pairs provisioning alone would cost ≥ 2.5 GB at this N (312M
  // links × 8 B before any key lands). The whole round — topology,
  // counters, scheduler, crypto — must stay far below that.
  const size_t after_kb = PeakRssKb();
  constexpr size_t kCeilingKb = 1500 * 1024;  // 1.5 GiB.
  EXPECT_LT(after_kb, kCeilingKb)
      << "peak RSS " << after_kb / 1024 << " MiB — a quadratic allocation "
      << "is back (started at " << before_kb / 1024 << " MiB)";
}

TEST(ScaleMemory, TopologyBuildIsLinearish) {
  // The spatial-hash build allocates O(N + E); a 25k-node build must not
  // move peak RSS by anything close to the old N² candidate scan's
  // footprint. (The absolute ceiling above is the real guard; this one
  // localizes a regression to the topology layer.)
  const size_t before_kb = PeakRssKb();
  if (before_kb == 0) GTEST_SKIP() << "no /proc/self/status on this OS";
  agg::RunConfig config;
  config.deployment.node_count = 25000;
  const double side = 400.0 * std::sqrt(25000.0 / 400.0);
  config.deployment.area = net::Area{side, side};
  config.seed = 3;
  auto topology = agg::BuildRunTopology(config);
  ASSERT_TRUE(topology.ok());
  EXPECT_EQ(topology->node_count(), 25000u);
  const size_t after_kb = PeakRssKb();
  EXPECT_LT(after_kb - before_kb, 600 * 1024u)
      << "topology build grew peak RSS by " << (after_kb - before_kb) / 1024
      << " MiB";
}

}  // namespace
}  // namespace ipda
