// SMART baseline (slice-mix-aggregate, PDA/INFOCOM'07 — the paper's
// ref. [11]): privacy via slicing on a single tree, no integrity.

#include "agg/smart/smart_protocol.h"

#include <cmath>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "attack/eavesdropper.h"
#include "crypto/link_security.h"

namespace ipda::agg {
namespace {

RunConfig DenseConfig(uint64_t seed) {
  RunConfig config;
  config.deployment.node_count = 400;
  config.seed = seed;
  return config;
}

SmartConfig CountConfig(uint32_t j = 3) {
  SmartConfig config;
  config.slice_count = j;
  config.slice_range = 1.0;
  return config;
}

TEST(SmartProtocol, CountAccurateInDenseNetwork) {
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto result = RunSmart(DenseConfig(21), *function, *field,
                         CountConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->accuracy, 0.97);
  EXPECT_LE(result->accuracy, 1.0 + 1e-9);
  EXPECT_GT(result->stats.participants, 380u);
}

TEST(SmartProtocol, SlicesSumToContribution) {
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  std::map<net::NodeId, double> sums;
  std::map<net::NodeId, size_t> counts;
  auto observer = [&](net::NodeId from, net::NodeId,
                      const Vector& slice) {
    sums[from] += slice[0];
    counts[from] += 1;
  };
  auto result = RunSmart(DenseConfig(23), *function, *field,
                         CountConfig(3), observer);
  ASSERT_TRUE(result.ok());
  for (const auto& [node, sum] : sums) {
    EXPECT_NEAR(sum, 1.0, 1e-9) << "node " << node;
    EXPECT_EQ(counts[node], 3u);  // J slices incl. the kept one.
  }
}

TEST(SmartProtocol, SliceCountIsJMinusOnePerParticipant) {
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto result = RunSmart(DenseConfig(25), *function, *field,
                         CountConfig(3));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.slices_sent, 2 * result->stats.participants);
}

TEST(SmartProtocol, OverheadBetweenTagAndIpda) {
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  const auto config = DenseConfig(27);
  auto tag = RunTag(config, *function, *field);
  auto smart = RunSmart(config, *function, *field, CountConfig(3));
  IpdaConfig ipda_config;
  ipda_config.slice_range = 1.0;
  auto ipda = RunIpda(config, *function, *field, ipda_config);
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE(smart.ok());
  ASSERT_TRUE(ipda.ok());
  EXPECT_GT(smart->traffic.bytes_sent, tag->traffic.bytes_sent);
  EXPECT_LT(smart->traffic.bytes_sent, ipda->traffic.bytes_sent);
}

TEST(SmartProtocol, NoIntegrityTamperingGoesUndetected) {
  // SMART exposes no acceptance decision at all: whatever arrives is the
  // answer — the gap iPDA exists to close. (Structural: SmartStats has no
  // IntegrityDecision; the collected value is taken at face value.)
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto result = RunSmart(DenseConfig(29), *function, *field,
                         CountConfig(3));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.collected[0], 0.0);
}

TEST(SmartProtocol, PrivacyComparableToIpdaUnderSamePx) {
  // Under the same broken-link fraction, SMART's J=3 slicing keeps
  // disclosure low (same slicing mechanism iPDA adopted).
  const auto config = DenseConfig(31);
  auto topology = BuildRunTopology(config);
  ASSERT_TRUE(topology.ok());
  std::vector<crypto::Link> links;
  for (net::NodeId a = 0; a < topology->node_count(); ++a) {
    for (net::NodeId b : topology->neighbors(a)) {
      if (a < b) links.emplace_back(a, b);
    }
  }
  util::Rng rng(5);
  auto compromise = crypto::UniformLinkCompromise(links.size(), 0.1, rng);
  std::vector<bool> broken(compromise.broken.begin(),
                           compromise.broken.end());
  attack::Eavesdropper eve(topology->node_count(), links, broken);
  auto ipda_observer = eve.Observer();
  // Adapt iPDA's observer signature: SMART has one implicit tree.
  auto observer = [&](net::NodeId from, net::NodeId to,
                      const Vector& slice) {
    ipda_observer(from, to, TreeColor::kRed, slice);
  };
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto result = RunSmart(config, *function, *field, CountConfig(3),
                         observer);
  ASSERT_TRUE(result.ok());
  const auto report = eve.Evaluate();
  EXPECT_GT(report.observed_count, 380u);
  EXPECT_LT(report.disclosure_rate, 0.05);
  // Reconstructions (if any) are exact.
  for (const auto& [node, value] : report.reconstructed) {
    EXPECT_NEAR(value[0], 1.0, 1e-9);
  }
}

TEST(SmartProtocol, ConfigValidation) {
  SmartConfig config;
  EXPECT_TRUE(ValidateSmartConfig(config).ok());
  config.slice_count = 0;
  EXPECT_FALSE(ValidateSmartConfig(config).ok());
  config = SmartConfig{};
  config.slice_range = -1.0;
  EXPECT_FALSE(ValidateSmartConfig(config).ok());
  config = SmartConfig{};
  config.max_depth = 0;
  EXPECT_FALSE(ValidateSmartConfig(config).ok());
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    config = SmartConfig{};
    config.slice_range = bad;
    EXPECT_FALSE(ValidateSmartConfig(config).ok()) << bad;
  }
}

TEST(SmartProtocol, JEqualsOneDegeneratesToTagWithPrivacyLoss) {
  // J=1: the node keeps its whole reading and mixes nothing — SMART
  // becomes TAG-with-encryption. Still aggregates correctly.
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto result = RunSmart(DenseConfig(33), *function, *field,
                         CountConfig(1));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->accuracy, 0.97);
  EXPECT_EQ(result->stats.slices_sent, 0u);
}

TEST(SmartProtocol, DeterministicPerSeed) {
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto a = RunSmart(DenseConfig(35), *function, *field, CountConfig());
  auto b = RunSmart(DenseConfig(35), *function, *field, CountConfig());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.collected[0], b->stats.collected[0]);
  EXPECT_EQ(a->traffic.bytes_sent, b->traffic.bytes_sent);
}

}  // namespace
}  // namespace ipda::agg
