// IpdaProtocol behaviour over small, controlled networks.

#include "agg/ipda/protocol.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "crypto/predistribution.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace ipda::agg {
namespace {

agg::RunConfig SmallConfig(uint64_t seed, size_t n = 400) {
  agg::RunConfig config;
  config.deployment.node_count = n;
  config.seed = seed;
  return config;
}

IpdaConfig CountConfig(uint32_t l = 2) {
  IpdaConfig config;
  config.slice_count = l;
  config.slice_range = 1.0;
  return config;
}

TEST(IpdaProtocol, SliceObserverSeesConservedSlices) {
  // Sum of all observed slices per (node, color) equals the node's
  // contribution — the invariant behind Eqs. (3)-(6).
  const auto config = SmallConfig(101);
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  std::map<std::pair<net::NodeId, TreeColor>, double> sums;
  std::map<net::NodeId, size_t> slice_counts;
  IpdaRunHooks hooks;
  hooks.slice_observer = [&](net::NodeId from, net::NodeId to,
                             TreeColor color, const Vector& slice) {
    (void)to;
    sums[{from, color}] += slice[0];
    slice_counts[from] += 1;
  };
  auto result = RunIpda(config, *function, *field, CountConfig(2), hooks);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->stats.participants, 300u);
  size_t checked = 0;
  for (const auto& [key, sum] : sums) {
    EXPECT_NEAR(sum, 1.0, 1e-9) << "node " << key.first;
    ++checked;
  }
  EXPECT_EQ(checked, 2 * result->stats.participants);
  // Every participant produced exactly 2l slices (counting the kept one).
  for (const auto& [node, count] : slice_counts) {
    EXPECT_EQ(count, 4u);
  }
}

TEST(IpdaProtocol, SliceCountMatchesRoleFormula) {
  // Over-the-air slices = 2l per leaf participant, 2l-1 per aggregator
  // participant. Default config has no leaves, so slices_sent = (2l-1) *
  // participants.
  const auto config = SmallConfig(103);
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto result = RunIpda(config, *function, *field, CountConfig(2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.slices_sent, 3 * result->stats.participants);
}

TEST(IpdaProtocol, WithoutLossTreesMatchTruthExactly) {
  // With ARQ and a dense network, every participant's contribution reaches
  // both trees: totals equal the participant count exactly.
  const auto config = SmallConfig(105, 300);
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto result = RunIpda(config, *function, *field, CountConfig(2));
  ASSERT_TRUE(result.ok());
  const double participants =
      static_cast<double>(result->stats.participants);
  EXPECT_NEAR(result->stats.decision.acc_red[0], participants, 1.0);
  EXPECT_NEAR(result->stats.decision.acc_blue[0], participants, 1.0);
}

TEST(IpdaProtocol, SumAggregationAccurate) {
  const auto config = SmallConfig(107, 300);
  auto function = MakeSum();
  auto field = MakeUniformField(20.0, 30.0, 5);
  IpdaConfig ipda;
  ipda.slice_count = 2;
  ipda.slice_range = 30.0;
  ipda.threshold = 60.0;  // Th scales with the data magnitude for SUM.
  auto result = RunIpda(config, *function, *field, ipda);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.decision.accepted);
  EXPECT_GT(result->accuracy, 0.9);
  EXPECT_LT(result->accuracy, 1.02);
}

TEST(IpdaProtocol, AverageFunctionFinalizes) {
  const auto config = SmallConfig(109, 300);
  auto function = MakeAverage();
  auto field = MakeConstantField(42.0);
  IpdaConfig ipda;
  ipda.slice_count = 2;
  ipda.slice_range = 42.0;
  ipda.threshold = 100.0;
  auto result = RunIpda(config, *function, *field, ipda);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->stats.decision.accepted);
  EXPECT_NEAR(result->result, 42.0, 1.0);
}

TEST(IpdaProtocol, SliceCountOneWorks) {
  const auto config = SmallConfig(111);
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto result = RunIpda(config, *function, *field, CountConfig(1));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.decision.accepted);
  EXPECT_GT(result->accuracy, 0.9);
  // l=1: aggregators transmit 2l-1 = 1 slice each.
  EXPECT_EQ(result->stats.slices_sent, result->stats.participants);
}

TEST(IpdaProtocol, LargerSliceCountNeedsDenserNeighborhoods) {
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto l2 = RunIpda(SmallConfig(113, 250), *function, *field,
                    CountConfig(2));
  auto l4 = RunIpda(SmallConfig(113, 250), *function, *field,
                    CountConfig(4));
  ASSERT_TRUE(l2.ok());
  ASSERT_TRUE(l4.ok());
  // l=4 requires 4 aggregator neighbors per color: fewer nodes qualify
  // (loss factor (b) in §IV-B-3).
  EXPECT_LT(l4->stats.participants, l2->stats.participants);
}

TEST(IpdaProtocol, PlaintextModeStillAggregates) {
  const auto config = SmallConfig(115);
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  IpdaConfig ipda = CountConfig(2);
  ipda.encrypt_slices = false;
  auto result = RunIpda(config, *function, *field, ipda);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.decision.accepted);
  EXPECT_GT(result->accuracy, 0.85);
}

TEST(IpdaProtocol, EncryptionCostsBytes) {
  const auto config = SmallConfig(117);
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  IpdaConfig plain = CountConfig(2);
  plain.encrypt_slices = false;
  auto encrypted = RunIpda(config, *function, *field, CountConfig(2));
  auto plaintext = RunIpda(config, *function, *field, plain);
  ASSERT_TRUE(encrypted.ok());
  ASSERT_TRUE(plaintext.ok());
  EXPECT_GT(encrypted->traffic.bytes_sent, plaintext->traffic.bytes_sent);
}

TEST(IpdaProtocol, ExternalPredistributionKeysWork) {
  const auto run_config = SmallConfig(119, 300);
  auto topology = BuildRunTopology(run_config);
  ASSERT_TRUE(topology.ok());
  sim::Simulator simulator(run_config.seed);
  net::Network network(&simulator, std::move(*topology));

  // Dense EG rings: nearly every link keyable.
  util::Rng rng(7);
  auto scheme = crypto::KeyPredistribution::Create(
      crypto::EgConfig{200, 60}, network.size(), 11, rng);
  ASSERT_TRUE(scheme.ok());
  std::vector<crypto::Link> links;
  for (net::NodeId a = 0; a < network.size(); ++a) {
    for (net::NodeId b : network.topology().neighbors(a)) {
      if (a < b) links.emplace_back(a, b);
    }
  }
  std::vector<crypto::LinkCrypto> cryptos;
  for (net::NodeId id = 0; id < network.size(); ++id) {
    cryptos.emplace_back(id);
  }
  const double secured = scheme->Provision(links, cryptos);
  EXPECT_GT(secured, 0.95);

  auto function = MakeCount();
  IpdaProtocol protocol(&network, function.get(), CountConfig(2));
  protocol.SetLinkCrypto(&cryptos);
  auto field = MakeConstantField(1.0);
  protocol.SetReadings(field->Sample(network.topology()));
  protocol.Start();
  simulator.RunUntil(protocol.Duration());
  const auto& stats = protocol.Finish();
  EXPECT_TRUE(stats.decision.accepted);
  EXPECT_GT(stats.participants, 250u);
  EXPECT_EQ(stats.slice_decrypt_failures, 0u);
}

TEST(IpdaProtocol, ExcludedNodesDoNotContribute) {
  const auto config = SmallConfig(121, 300);
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  auto baseline = RunIpda(config, *function, *field, CountConfig(2));
  ASSERT_TRUE(baseline.ok());

  IpdaRunHooks hooks;
  for (net::NodeId id = 1; id <= 60; ++id) hooks.excluded.push_back(id);
  auto reduced =
      RunIpda(config, *function, *field, CountConfig(2), hooks);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ(reduced->stats.excluded, 60u);
  EXPECT_LT(reduced->stats.decision.acc_red[0],
            baseline->stats.decision.acc_red[0]);
  // Both trees lose the same contributions: still accepted.
  EXPECT_TRUE(reduced->stats.decision.accepted);
}

TEST(IpdaProtocol, PollutionOnBothTreesByDistinctAttackersStillDetected) {
  // Two independent (non-colluding) polluters on different trees tamper by
  // different amounts — §IV-A-4 says results still disagree.
  const auto config = SmallConfig(123, 300);
  auto function = MakeCount();
  auto field = MakeConstantField(1.0);
  IpdaRunHooks hooks;
  hooks.pollution = [](net::NodeId node, TreeColor, Vector& partial) {
    if (node == 17) partial[0] += 40.0;
    if (node == 99) partial[0] += 90.0;
  };
  auto result = RunIpda(config, *function, *field, CountConfig(2), hooks);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->stats.decision.accepted);
}

TEST(IpdaProtocol, StartTwiceAborts) {
  const auto run_config = SmallConfig(125, 100);
  auto topology = BuildRunTopology(run_config);
  ASSERT_TRUE(topology.ok());
  sim::Simulator simulator(1);
  net::Network network(&simulator, std::move(*topology));
  auto function = MakeCount();
  IpdaProtocol protocol(&network, function.get(), CountConfig(2));
  protocol.Start();
  EXPECT_DEATH(protocol.Start(), "CHECK failed");
}

TEST(IpdaProtocol, FinishIsIdempotent) {
  const auto config = SmallConfig(127);
  auto topology = BuildRunTopology(config);
  ASSERT_TRUE(topology.ok());
  sim::Simulator simulator(config.seed);
  net::Network network(&simulator, std::move(*topology));
  auto function = MakeCount();
  IpdaProtocol protocol(&network, function.get(), CountConfig(2));
  auto field = MakeConstantField(1.0);
  protocol.SetReadings(field->Sample(network.topology()));
  protocol.Start();
  simulator.RunUntil(protocol.Duration());
  const auto& first = protocol.Finish();
  const size_t participants = first.participants;
  const auto& second = protocol.Finish();
  EXPECT_EQ(second.participants, participants);
}

net::Packet HelloPacket(net::NodeId src, util::Bytes payload) {
  net::Packet packet;
  packet.src = src;
  packet.type = net::PacketType::kHello;
  packet.payload = std::move(payload);
  return packet;
}

bool HeardAsRed(const IpdaProtocol& protocol, net::NodeId node,
                net::NodeId sender) {
  std::vector<net::NodeId> red;
  protocol.builder(node).AggregatorNeighbors(TreeColor::kRed, red);
  return std::find(red.begin(), red.end(), sender) != red.end();
}

TEST(IpdaProtocol, CorruptHelloIsRejectedAtEveryReceiver) {
  const auto config = SmallConfig(131, 300);
  auto topology = BuildRunTopology(config);
  ASSERT_TRUE(topology.ok());
  // A sender three or more hops out, so the base station's flood reaches
  // none of its neighbors while its frames are on the air.
  const std::vector<uint32_t> hops = topology->HopCounts();
  auto far_out = [&](net::NodeId id) {
    return hops[id] >= 3 && hops[id] != UINT32_MAX;
  };
  net::NodeId sender = 1;
  while (sender < hops.size() && !far_out(sender)) ++sender;
  ASSERT_LT(sender, hops.size());
  // A second one far enough away that its frame and the HELLOs it
  // prompts reach none of the sender's neighbors.
  const net::Point2D at = topology->position(sender);
  net::NodeId decoy = 1;
  while (decoy < hops.size() &&
         !(far_out(decoy) && net::Distance(at, topology->position(decoy)) >
                                 4 * config.range)) {
    ++decoy;
  }
  ASSERT_LT(decoy, hops.size());
  sim::Simulator simulator(config.seed);
  net::Network network(&simulator, std::move(*topology));
  auto function = MakeCount();
  IpdaProtocol protocol(&network, function.get(), CountConfig(2));
  protocol.Start();
  const net::NeighborSpan receivers = network.topology().neighbors(sender);
  ASSERT_GE(receivers.size(), 3u);
  const net::CounterBoard& counters = std::as_const(network).counters();
  // The last HELLO decoded is the decoy's well-formed red one, which a
  // failed decode must not fall back to.
  network.channel().StartTransmission(
      decoy, HelloPacket(decoy, EncodeHelloMsg({TreeColor::kRed, 1, {}})));
  simulator.RunUntil(sim::Milliseconds(1));
  ASSERT_TRUE(HeardAsRed(protocol, network.topology().neighbors(decoy)[0],
                         decoy));
  std::vector<uint64_t> delivered;
  for (net::NodeId node : receivers) {
    delivered.push_back(counters.at(node).frames_delivered);
  }
  // Color 9 does not exist. Every receiver decodes the same frame.
  network.channel().StartTransmission(
      sender, HelloPacket(sender, util::Bytes{9, 1, 0, 0}));
  simulator.RunUntil(sim::Milliseconds(2));
  for (size_t i = 0; i < receivers.size(); ++i) {
    const net::NodeId node = receivers[i];
    EXPECT_EQ(counters.at(node).frames_delivered, delivered[i] + 1)
        << "node " << node;
    EXPECT_FALSE(HeardAsRed(protocol, node, sender)) << "node " << node;
  }
  // The sender's next, well-formed HELLO is heard everywhere.
  network.channel().StartTransmission(
      sender,
      HelloPacket(sender, EncodeHelloMsg({TreeColor::kRed, 2, {}})));
  simulator.RunUntil(sim::Milliseconds(3));
  for (net::NodeId node : receivers) {
    EXPECT_TRUE(HeardAsRed(protocol, node, sender)) << "node " << node;
  }
}

}  // namespace
}  // namespace ipda::agg
