// CPDA (cluster-based private aggregation, PDA ref. [11]): masking
// polynomials, interpolation, and the full clustered protocol.

#include "agg/cpda/cpda_protocol.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "agg/cpda/interpolation.h"
#include "agg/link_keys.h"
#include "agg/reading.h"
#include "agg/runner.h"

namespace ipda::agg {
namespace {

TEST(MaskingPolynomial, ConstantTermIsValue) {
  util::Rng rng(1);
  MaskingPolynomial poly(42.5, 2, 100.0, rng);
  EXPECT_DOUBLE_EQ(poly.Evaluate(0.0), 42.5);
  EXPECT_DOUBLE_EQ(poly.value(), 42.5);
  EXPECT_EQ(poly.degree(), 2u);
}

TEST(MaskingPolynomial, EvaluationsLookRandom) {
  // A single evaluation at x != 0 must not reveal the value: across many
  // fresh polynomials hiding the SAME value, evaluations at x = 3 should
  // spread over roughly [-range*(3+9), range*(3+9)].
  util::Rng rng(2);
  double min = 1e18, max = -1e18;
  for (int i = 0; i < 2000; ++i) {
    MaskingPolynomial poly(7.0, 2, 10.0, rng);
    const double y = poly.Evaluate(3.0);
    min = std::min(min, y);
    max = std::max(max, y);
  }
  EXPECT_LT(min, -60.0);
  EXPECT_GT(max, 70.0);
}

TEST(Interpolation, RecoversConstantExactly) {
  util::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const double value = rng.UniformDouble(-100.0, 100.0);
    MaskingPolynomial poly(value, 2, 50.0, rng);
    const std::vector<double> xs{1.0, 2.0, 5.0};
    std::vector<double> ys;
    for (double x : xs) ys.push_back(poly.Evaluate(x));
    auto constant = InterpolateConstantTerm(xs, ys);
    ASSERT_TRUE(constant.ok());
    EXPECT_NEAR(*constant, value, 1e-9);
  }
}

TEST(Interpolation, SumOfPolynomialsYieldsSumOfValues) {
  // The CPDA core identity: interpolating summed evaluations returns the
  // summed constant terms.
  util::Rng rng(4);
  const std::vector<double> xs{7.0, 11.0, 19.0};
  std::vector<double> summed(xs.size(), 0.0);
  double true_sum = 0.0;
  for (int member = 0; member < 5; ++member) {
    const double value = rng.UniformDouble(0.0, 30.0);
    true_sum += value;
    MaskingPolynomial poly(value, 2, 100.0, rng);
    for (size_t i = 0; i < xs.size(); ++i) {
      summed[i] += poly.Evaluate(xs[i]);
    }
  }
  auto constant = InterpolateConstantTerm(xs, summed);
  ASSERT_TRUE(constant.ok());
  EXPECT_NEAR(*constant, true_sum, 1e-8);
}

TEST(Interpolation, RejectsBadInputs) {
  EXPECT_FALSE(InterpolateConstantTerm({1.0}, {2.0}).ok());
  EXPECT_FALSE(InterpolateConstantTerm({1.0, 2.0}, {1.0}).ok());
  EXPECT_FALSE(InterpolateConstantTerm({1.0, 1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(InterpolateConstantTerm({0.0, 1.0}, {1.0, 2.0}).ok());
}

TEST(Interpolation, CoefficientRecoveryIsTheCollusionAttack) {
  // deg+1 colluding members pool their points of one member's polynomial
  // and reconstruct it — exposing the private value (PDA's documented
  // collusion threshold).
  util::Rng rng(5);
  MaskingPolynomial poly(13.0, 2, 40.0, rng);
  const std::vector<double> xs{2.0, 3.0, 9.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(poly.Evaluate(x));
  auto coeffs = InterpolateCoefficients(xs, ys);
  ASSERT_TRUE(coeffs.ok());
  ASSERT_EQ(coeffs->size(), 3u);
  EXPECT_NEAR((*coeffs)[0], 13.0, 1e-9);  // The private value, exposed.
  // Sanity: recovered polynomial evaluates identically elsewhere.
  const double x = 17.0;
  const double recovered =
      (*coeffs)[0] + (*coeffs)[1] * x + (*coeffs)[2] * x * x;
  EXPECT_NEAR(recovered, poly.Evaluate(x), 1e-6);
}

TEST(Interpolation, FewerPointsThanDegreeCannotRecover) {
  // With only deg points the constant term is NOT determined: two
  // polynomials with different constants can agree on those points.
  util::Rng rng(6);
  MaskingPolynomial poly(50.0, 2, 40.0, rng);
  const std::vector<double> xs{2.0, 3.0};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(poly.Evaluate(x));
  // Interpolating as degree-1 succeeds numerically but gives the wrong
  // constant (information-theoretic hiding with degree 2).
  auto constant = InterpolateConstantTerm(xs, ys);
  ASSERT_TRUE(constant.ok());
  EXPECT_GT(std::fabs(*constant - 50.0), 1e-6);
}

RunConfig DenseConfig(uint64_t seed) {
  RunConfig config;
  config.deployment.node_count = 400;
  config.seed = seed;
  return config;
}

TEST(CpdaProtocol, CountAccurateInDenseNetwork) {
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  CpdaConfig cpda;
  cpda.coeff_range = 10.0;
  auto result = RunCpda(DenseConfig(41), *function, *field, cpda);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->accuracy, 0.95);
  EXPECT_LT(result->accuracy, 1.0 + 1e-6);
  EXPECT_GT(result->stats.clusters_solved, 20u);
  EXPECT_GT(result->stats.clustered,
            result->stats.unprotected);  // Most nodes masked.
}

TEST(CpdaProtocol, SumMatchesTruthClosely) {
  auto function = MakeSum();
  auto field = MakeUniformField(10.0, 20.0, 9);
  CpdaConfig cpda;
  cpda.coeff_range = 100.0;
  auto result = RunCpda(DenseConfig(43), *function, *field, cpda);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->accuracy, 0.95);
  // Any deviation beyond interpolation round-off is whole-node loss,
  // never fractional corruption: collected <= truth (+ float slack; the
  // Lagrange weights amplify the 1e2-scale masking coefficients).
  EXPECT_LE(result->stats.collected[0], result->true_acc[0] + 0.01);
}

TEST(CpdaProtocol, HigherLeaderProbabilityMoreClusters) {
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  CpdaConfig low;
  low.leader_probability = 0.1;
  CpdaConfig high;
  high.leader_probability = 0.5;
  auto a = RunCpda(DenseConfig(45), *function, *field, low);
  auto b = RunCpda(DenseConfig(45), *function, *field, high);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a->stats.leaders, b->stats.leaders);
}

TEST(CpdaProtocol, ConfigValidation) {
  CpdaConfig config;
  EXPECT_TRUE(ValidateCpdaConfig(config).ok());
  config.leader_probability = 0.0;
  EXPECT_FALSE(ValidateCpdaConfig(config).ok());
  config = CpdaConfig{};
  config.leader_probability = 1.0;
  EXPECT_FALSE(ValidateCpdaConfig(config).ok());
  config = CpdaConfig{};
  config.poly_degree = 0;
  EXPECT_FALSE(ValidateCpdaConfig(config).ok());
  config = CpdaConfig{};
  config.coeff_range = 0.0;
  EXPECT_FALSE(ValidateCpdaConfig(config).ok());
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    config = CpdaConfig{};
    config.leader_probability = bad;
    EXPECT_FALSE(ValidateCpdaConfig(config).ok()) << bad;
    config = CpdaConfig{};
    config.coeff_range = bad;
    EXPECT_FALSE(ValidateCpdaConfig(config).ok()) << bad;
  }
}

TEST(CpdaProtocol, NoFallbackDropsUnclusteredData) {
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  CpdaConfig with_fallback;
  CpdaConfig without;
  without.fallback_unclustered = false;
  auto a = RunCpda(DenseConfig(47), *function, *field, with_fallback);
  auto b = RunCpda(DenseConfig(47), *function, *field, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(a->stats.collected[0], b->stats.collected[0]);
}

TEST(CpdaProtocol, ExternalPairwiseKeysWork) {
  const RunConfig config = DenseConfig(51);
  auto topology = BuildRunTopology(config);
  ASSERT_TRUE(topology.ok());
  sim::Simulator simulator(config.seed);
  net::Network network(&simulator, std::move(*topology));
  // Pairwise keys on the topology's edges only.
  std::vector<crypto::LinkCrypto> cryptos = ProvisionPairwiseKeys(
      network.topology(), crypto::PairwiseKeyScheme(99),
      crypto::KeyStore::DeriveScope::kProvisionedPeers);

  auto function = MakeCount();
  CpdaProtocol protocol(&network, function.get());
  protocol.SetLinkCrypto(&cryptos);
  auto field = MakeConstantField(1.0);
  protocol.SetReadings(field->Sample(network.topology()));
  protocol.Start();
  simulator.RunUntil(protocol.Duration());
  const auto& stats = protocol.Finish();
  // Without the internal master scheme, non-adjacent co-member shares are
  // dropped, so a good share of clusters fail — the round still
  // aggregates what it can, and never over-counts.
  EXPECT_GT(stats.collected[0], 150.0);
  EXPECT_LE(stats.collected[0], 399.0 + 1e-6);
  EXPECT_GT(stats.clusters_lost, 0u);  // The documented degradation.
}

TEST(CpdaProtocol, DeterministicPerSeed) {
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto a = RunCpda(DenseConfig(49), *function, *field);
  auto b = RunCpda(DenseConfig(49), *function, *field);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.collected[0], b->stats.collected[0]);
  EXPECT_EQ(a->traffic.bytes_sent, b->traffic.bytes_sent);
}

}  // namespace
}  // namespace ipda::agg
