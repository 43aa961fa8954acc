// KIPDA: crypto-free k-indistinguishable MAX/MIN aggregation.

#include "agg/kipda/kipda_protocol.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "agg/reading.h"
#include "agg/runner.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace ipda::agg {
namespace {

TEST(KipdaPrimitives, RealPositionsAreSecretSeedDeterministic) {
  KipdaConfig a;
  KipdaConfig b;
  EXPECT_EQ(KipdaRealPositions(a), KipdaRealPositions(b));
  b.secret_seed = 999;
  EXPECT_NE(KipdaRealPositions(a), KipdaRealPositions(b));
  const auto positions = KipdaRealPositions(a);
  EXPECT_EQ(positions.size(), a.real_positions);
  std::set<size_t> unique(positions.begin(), positions.end());
  EXPECT_EQ(unique.size(), positions.size());
  for (size_t pos : positions) EXPECT_LT(pos, a.message_size);
}

TEST(KipdaPrimitives, EncodePlacesReadingAndDominatedCamouflage) {
  KipdaConfig config;
  util::Rng rng(1);
  const auto real = KipdaRealPositions(config);
  for (int trial = 0; trial < 200; ++trial) {
    const double reading = rng.UniformDouble(10.0, 90.0);
    const Vector message = KipdaEncode(config, reading, rng);
    ASSERT_EQ(message.size(), config.message_size);
    // Every secret position is bounded by the reading (MAX mode)...
    double best = config.value_floor;
    for (size_t pos : real) {
      EXPECT_LE(message[pos], reading + 1e-12);
      best = std::max(best, message[pos]);
    }
    // ...and the reading itself sits on one of them.
    EXPECT_DOUBLE_EQ(best, reading);
  }
}

TEST(KipdaPrimitives, DecodeOfSingleMessageIsTheReading) {
  KipdaConfig config;
  util::Rng rng(2);
  for (double reading : {0.0, 13.5, 99.9}) {
    const Vector message = KipdaEncode(config, reading, rng);
    EXPECT_DOUBLE_EQ(KipdaDecode(config, message), reading);
  }
}

TEST(KipdaPrimitives, CombinedMessagesDecodeToMax) {
  KipdaConfig config;
  util::Rng rng(3);
  Vector acc(config.message_size, config.value_floor);
  double true_max = config.value_floor;
  for (int i = 0; i < 50; ++i) {
    const double reading = rng.UniformDouble(0.0, 100.0);
    true_max = std::max(true_max, reading);
    KipdaCombine(config, acc, KipdaEncode(config, reading, rng));
  }
  EXPECT_DOUBLE_EQ(KipdaDecode(config, acc), true_max);
}

TEST(KipdaPrimitives, MinModeMirrors) {
  KipdaConfig config;
  config.maximize = false;
  util::Rng rng(4);
  Vector acc(config.message_size, config.value_ceiling);
  double true_min = config.value_ceiling;
  for (int i = 0; i < 50; ++i) {
    const double reading = rng.UniformDouble(0.0, 100.0);
    true_min = std::min(true_min, reading);
    KipdaCombine(config, acc, KipdaEncode(config, reading, rng));
  }
  EXPECT_DOUBLE_EQ(KipdaDecode(config, acc), true_min);
}

TEST(KipdaPrimitives, CamouflageHidesTheReading) {
  // An attacker's best generic strategy — "the real value is the vector
  // max" — must fail often: free camouflage regularly exceeds the
  // reading. (This is the k-indistinguishability sales pitch.)
  KipdaConfig config;
  util::Rng rng(5);
  int attacker_right = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    const double reading = rng.UniformDouble(20.0, 60.0);
    const Vector message = KipdaEncode(config, reading, rng);
    const double guess =
        *std::max_element(message.begin(), message.end());
    if (guess == reading) ++attacker_right;
  }
  EXPECT_LT(static_cast<double>(attacker_right) / trials, 0.1);
}

TEST(KipdaPrimitives, ConfigValidation) {
  KipdaConfig config;
  EXPECT_TRUE(ValidateKipdaConfig(config).ok());
  config.message_size = 0;
  EXPECT_FALSE(ValidateKipdaConfig(config).ok());
  config = KipdaConfig{};
  config.real_positions = 0;
  EXPECT_FALSE(ValidateKipdaConfig(config).ok());
  config = KipdaConfig{};
  config.real_positions = config.message_size + 1;
  EXPECT_FALSE(ValidateKipdaConfig(config).ok());
  config = KipdaConfig{};
  config.value_floor = config.value_ceiling;
  EXPECT_FALSE(ValidateKipdaConfig(config).ok());
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::nan(""), inf, -inf}) {
    config = KipdaConfig{};
    config.value_floor = bad;
    EXPECT_FALSE(ValidateKipdaConfig(config).ok()) << "floor " << bad;
    config = KipdaConfig{};
    config.value_ceiling = bad;
    EXPECT_FALSE(ValidateKipdaConfig(config).ok()) << "ceiling " << bad;
  }
}

TEST(KipdaProtocol, ExactMaxOverRealNetwork) {
  RunConfig config;
  config.deployment.node_count = 400;
  config.seed = 61;
  auto topology = BuildRunTopology(config);
  ASSERT_TRUE(topology.ok());
  sim::Simulator simulator(config.seed);
  net::Network network(&simulator, std::move(*topology));
  auto field = MakeUniformField(5.0, 95.0, 8);
  const auto readings = field->Sample(network.topology());
  KipdaProtocol protocol(&network);
  protocol.SetReadings(readings);
  protocol.Start();
  simulator.RunUntil(protocol.Duration());
  // True max over joined sensors: with a dense network everyone joins, so
  // compare against the global max.
  double true_max = 0.0;
  for (size_t i = 1; i < readings.size(); ++i) {
    true_max = std::max(true_max, readings[i]);
  }
  ASSERT_GT(protocol.stats().nodes_joined, 390u);
  EXPECT_DOUBLE_EQ(protocol.FinalizedResult(), true_max);
}

TEST(KipdaProtocol, ExactMinOverRealNetwork) {
  RunConfig config;
  config.deployment.node_count = 400;
  config.seed = 62;
  auto topology = BuildRunTopology(config);
  ASSERT_TRUE(topology.ok());
  sim::Simulator simulator(config.seed);
  net::Network network(&simulator, std::move(*topology));
  auto field = MakeUniformField(5.0, 95.0, 9);
  const auto readings = field->Sample(network.topology());
  KipdaConfig kipda;
  kipda.maximize = false;
  KipdaProtocol protocol(&network, kipda);
  // Base station reading (index 0) defaults to 0 in Sample(); overwrite
  // so it cannot fake the minimum.
  auto adjusted = readings;
  adjusted[0] = kipda.value_ceiling;
  protocol.SetReadings(adjusted);
  protocol.Start();
  simulator.RunUntil(protocol.Duration());
  double true_min = 100.0;
  for (size_t i = 1; i < readings.size(); ++i) {
    true_min = std::min(true_min, readings[i]);
  }
  ASSERT_GT(protocol.stats().nodes_joined, 390u);
  EXPECT_DOUBLE_EQ(protocol.FinalizedResult(), true_min);
}

TEST(KipdaProtocol, NeverOvershootsTrueMax) {
  // Dominated camouflage guarantees result <= true max, loss or not.
  for (uint64_t seed : {70u, 71u, 72u}) {
    RunConfig config;
    config.deployment.node_count = 250;  // Sparse: losses likely.
    config.seed = seed;
    auto topology = BuildRunTopology(config);
    ASSERT_TRUE(topology.ok());
    sim::Simulator simulator(config.seed);
    net::Network network(&simulator, std::move(*topology));
    auto field = MakeUniformField(5.0, 95.0, seed);
    const auto readings = field->Sample(network.topology());
    KipdaProtocol protocol(&network);
    protocol.SetReadings(readings);
    protocol.Start();
    simulator.RunUntil(protocol.Duration());
    double true_max = 0.0;
    for (size_t i = 1; i < readings.size(); ++i) {
      true_max = std::max(true_max, readings[i]);
    }
    EXPECT_LE(protocol.FinalizedResult(), true_max + 1e-12);
  }
}

TEST(KipdaProtocol, WrongSecretReadsGarbage) {
  // A base station (or eavesdropper) without the right secret decodes
  // camouflage, typically overshooting the true max.
  RunConfig config;
  config.deployment.node_count = 400;
  config.seed = 63;
  auto topology = BuildRunTopology(config);
  ASSERT_TRUE(topology.ok());
  sim::Simulator simulator(config.seed);
  net::Network network(&simulator, std::move(*topology));
  auto field = MakeUniformField(5.0, 50.0, 10);  // Max well below 100.
  const auto readings = field->Sample(network.topology());
  KipdaProtocol protocol(&network);
  protocol.SetReadings(readings);
  protocol.Start();
  simulator.RunUntil(protocol.Duration());

  KipdaConfig wrong;
  wrong.secret_seed = 0xBAD5EED;
  const double eavesdropped =
      KipdaDecode(wrong, protocol.stats().collected);
  double true_max = 0.0;
  for (size_t i = 1; i < readings.size(); ++i) {
    true_max = std::max(true_max, readings[i]);
  }
  EXPECT_GT(eavesdropped, true_max + 10.0);
}

}  // namespace
}  // namespace ipda::agg
