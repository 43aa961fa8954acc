// MAC behaviour: carrier sense, ARQ retransmission, dedup, drops.

#include "net/mac.h"

#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace ipda::net {
namespace {

// Line topology 0 -- 1 -- 2 with hidden terminals 0/2.
std::unique_ptr<Topology> LineTopology() {
  auto topo = Topology::Build({{0, 0}, {40, 0}, {80, 0}}, 50.0);
  return std::make_unique<Topology>(std::move(*topo));
}

class MacTest : public ::testing::Test {
 protected:
  void Init(MacConfig config = {}) {
    sim_ = std::make_unique<sim::Simulator>(3);
    network_ = std::make_unique<Network>(sim_.get(), std::move(*LineTopology()),
                                         PhyConfig{}, config);
    for (NodeId id = 0; id < 3; ++id) {
      network_->node(id).SetReceiveHandler(
          [this, id](const Packet& packet) {
            received_.push_back({id, packet});
          });
    }
  }

  Packet DataPacket(NodeId dst, size_t bytes = 20) {
    Packet p;
    p.dst = dst;
    p.type = PacketType::kControl;
    p.payload.assign(bytes, 0x55);
    return p;
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<Network> network_;
  std::vector<std::pair<NodeId, Packet>> received_;
};

TEST_F(MacTest, UnicastDeliveredOnce) {
  Init();
  network_->node(0).Send(DataPacket(1));
  sim_->RunUntil(sim::Seconds(1));
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first, 1u);
  EXPECT_EQ(received_[0].second.src, 0u);
}

TEST_F(MacTest, BroadcastDeliveredToAllNeighbors) {
  Init();
  network_->node(1).Send(DataPacket(kBroadcastId));
  sim_->RunUntil(sim::Seconds(1));
  EXPECT_EQ(received_.size(), 2u);  // Nodes 0 and 2.
}

TEST_F(MacTest, QueueDrainsInOrder) {
  Init();
  for (uint8_t i = 0; i < 5; ++i) {
    Packet p = DataPacket(1);
    p.payload[0] = i;
    network_->node(0).Send(std::move(p));
  }
  sim_->RunUntil(sim::Seconds(2));
  ASSERT_EQ(received_.size(), 5u);
  for (uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(received_[i].second.payload[0], i);
  }
}

TEST_F(MacTest, HiddenTerminalRecoveredByArq) {
  // 0 and 2 cannot hear each other; both unicast long frames to 1 at the
  // same moment. ARQ retransmissions must eventually deliver both.
  Init();
  network_->node(0).Send(DataPacket(1, 200));
  network_->node(2).Send(DataPacket(1, 200));
  sim_->RunUntil(sim::Seconds(2));
  EXPECT_EQ(received_.size(), 2u);
  EXPECT_EQ(network_->counters().at(1).frames_collided +
                network_->counters().Totals().mac_drops,
            network_->counters().at(1).frames_collided);  // No drops.
}

TEST_F(MacTest, ArqDisabledLosesHiddenTerminalFrames) {
  MacConfig config;
  config.arq = false;
  Init(config);
  network_->node(0).Send(DataPacket(1, 200));
  network_->node(2).Send(DataPacket(1, 200));
  sim_->RunUntil(sim::Seconds(2));
  // Without ARQ the initial collision is final (backoffs are randomized,
  // but both first copies overlap; nothing retransmits).
  EXPECT_LT(received_.size(), 2u);
}

TEST_F(MacTest, DuplicateSuppression) {
  // Force ACK losses by having node 1's ACK collide: node 1 receives from
  // 0 while 2 is also transmitting long frames. Ultimately the app must
  // see each logical frame exactly once.
  Init();
  for (int i = 0; i < 10; ++i) {
    network_->node(0).Send(DataPacket(1, 150));
    network_->node(2).Send(DataPacket(1, 150));
  }
  sim_->RunUntil(sim::Seconds(5));
  size_t to_node1 = 0;
  for (const auto& [id, packet] : received_) {
    if (id == 1) ++to_node1;
  }
  EXPECT_LE(to_node1, 20u);  // Never more than sent: no duplicates.
  EXPECT_GE(to_node1, 18u);  // ARQ recovers nearly everything.
}

TEST_F(MacTest, SequencesIncreasePerSender) {
  Init();
  network_->node(0).Send(DataPacket(1));
  network_->node(0).Send(DataPacket(1));
  sim_->RunUntil(sim::Seconds(1));
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_LT(received_[0].second.seq, received_[1].second.seq);
}

TEST_F(MacTest, AckFramesNeverReachApplication) {
  Init();
  network_->node(0).Send(DataPacket(1));
  sim_->RunUntil(sim::Seconds(1));
  for (const auto& [id, packet] : received_) {
    EXPECT_NE(packet.type, PacketType::kAck);
  }
  // ACK got counted as sent traffic by node 1.
  EXPECT_GE(network_->counters().at(1).frames_sent, 1u);
}

TEST_F(MacTest, UnicastToDeafNodeDropsAfterRetries) {
  // Node 0 unicasts to out-of-range node 2: no ACK can ever arrive.
  MacConfig config;
  config.max_retries = 3;
  Init(config);
  network_->node(0).Send(DataPacket(2));
  sim_->RunUntil(sim::Seconds(5));
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(network_->counters().at(0).mac_drops, 1u);
  // Original + 3 retries = 4 transmissions.
  EXPECT_EQ(network_->counters().at(0).frames_sent, 4u);
}

TEST_F(MacTest, DropDoesNotStallQueue) {
  MacConfig config;
  config.max_retries = 2;
  Init(config);
  network_->node(0).Send(DataPacket(2));  // Unreachable; will drop.
  network_->node(0).Send(DataPacket(1));  // Must still go through.
  sim_->RunUntil(sim::Seconds(5));
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first, 1u);
}

TEST_F(MacTest, CarrierSenseDefersUntilChannelClear) {
  Init();
  // Node 1 transmits a very long broadcast; node 0 wants to send during
  // it. Node 0 must defer, then deliver.
  network_->node(1).Send(DataPacket(kBroadcastId, 1200));  // ~9.7 ms airtime.
  sim_->At(sim::Milliseconds(3), [&] {
    network_->node(0).Send(DataPacket(1, 20));
  });
  sim_->RunUntil(sim::Seconds(2));
  size_t node1_got = 0;
  for (const auto& [id, packet] : received_) {
    if (id == 1 && packet.src == 0) ++node1_got;
  }
  EXPECT_EQ(node1_got, 1u);
  EXPECT_EQ(network_->counters().at(1).frames_missed_tx, 0u);
}

TEST_F(MacTest, BusyChannelExhaustsAttempts) {
  // Jam the channel with back-to-back long broadcasts from node 1; node
  // 0's carrier sense never clears, so its frame dies after max_attempts.
  MacConfig config;
  config.max_attempts = 3;
  config.backoff_max = sim::Milliseconds(2);
  Init(config);
  // 12 kB at 1 Mbps ≈ 96 ms per frame; queue several for ~0.5 s of jam.
  for (int i = 0; i < 8; ++i) {
    Packet jam = DataPacket(kBroadcastId, 12000);
    network_->node(1).Send(std::move(jam));
  }
  sim_->At(sim::Milliseconds(5), [&] {
    network_->node(0).Send(DataPacket(1, 10));
  });
  sim_->RunUntil(sim::Seconds(3));
  EXPECT_EQ(network_->counters().at(0).mac_drops, 1u);
}

TEST_F(MacTest, AckLossTriggersRetransmissionNotDuplication) {
  // Node 2 (hidden from 0) jams node 1 briefly; node 0's early attempts
  // collide, retransmissions outlast the jam, and node 1 dedups: the app
  // sees the frame exactly once. Generous retries make delivery certain
  // for any collision interleaving (exact timings vary with FP flags).
  MacConfig config;
  config.max_retries = 30;
  Init(config);
  for (int i = 0; i < 4; ++i) {
    network_->node(2).Send(DataPacket(kBroadcastId, 400));
  }
  network_->node(0).Send(DataPacket(1, 40));
  sim_->RunUntil(sim::Seconds(5));
  size_t node1_data = 0;
  for (const auto& [id, packet] : received_) {
    if (id == 1 && packet.src == 0) ++node1_data;
  }
  EXPECT_EQ(node1_data, 1u);
}

TEST_F(MacTest, IdleReflectsState) {
  Init();
  EXPECT_TRUE(network_->node(0).mac().idle());
  network_->node(0).Send(DataPacket(1));
  EXPECT_FALSE(network_->node(0).mac().idle());
  sim_->RunUntil(sim::Seconds(1));
  EXPECT_TRUE(network_->node(0).mac().idle());
}

TEST(DuplicateFilter, MatchesHashMapRefereeBeyondItsReservation) {
  // Random per-sender streams of fresh frames and retransmissions from
  // many more senders than the reserved table holds, checked against the
  // hash map the MAC used to keep.
  util::Rng rng(17);
  DuplicateFilter filter(/*expected_senders=*/3);
  std::unordered_map<NodeId, uint64_t> referee;
  std::vector<uint64_t> next_seq(40, 1);
  for (int step = 0; step < 20000; ++step) {
    const auto src = static_cast<NodeId>(rng.UniformUint64(40));
    uint64_t seq;
    if (next_seq[src] > 1 && rng.Bernoulli(0.4)) {
      seq = 1 + rng.UniformUint64(next_seq[src] - 1);  // Retransmission.
    } else {
      seq = next_seq[src]++;
    }
    auto [it, inserted] = referee.try_emplace(src, seq);
    bool want = true;
    if (!inserted) {
      if (seq <= it->second) {
        want = false;
      } else {
        it->second = seq;
      }
    }
    ASSERT_EQ(filter.Accept(src, seq), want) << "step " << step;
  }
  EXPECT_EQ(filter.senders(), referee.size());
  EXPECT_GT(filter.senders(), 3u);
}

TEST(MacDedup, MoreSendersThanDegreeWithRetransmissions) {
  // Receiver 0 starts with one neighbor, so its dedup table is sized for
  // one sender. Five more nodes then move into range and unicast to it,
  // while every data frame to node 0 arrives twice (a stale copy) and
  // every other ACK from node 0 is lost (forcing retransmissions). The
  // application must see each frame exactly once, in order per sender.
  constexpr NodeId kSenders = 6;
  std::vector<Point2D> positions{{0, 0}, {40, 0}};
  for (NodeId id = 2; id < kSenders + 1; ++id) {
    positions.push_back({1000.0 + 200.0 * id, 1000.0});
  }
  auto topology = Topology::Build(positions, 50.0);
  ASSERT_TRUE(topology.ok());
  ASSERT_EQ(topology->degree(0), 1u);
  sim::Simulator sim(5);
  MacConfig config;
  config.max_retries = 30;
  Network network(&sim, std::move(*topology), PhyConfig{}, config);
  for (NodeId id = 2; id < kSenders + 1; ++id) {
    const double angle = 0.9 * static_cast<double>(id);
    network.mutable_topology()->MoveNode(
        id, {30.0 * std::cos(angle), 30.0 * std::sin(angle)});
  }
  ASSERT_GT(network.topology().degree(0), 1u + 1u);

  size_t acks_seen = 0;
  network.channel().SetLinkFaultHook(
      [&acks_seen](NodeId sender, NodeId receiver, const Packet& packet) {
        LinkFault fault;
        if (receiver == 0 && packet.type != PacketType::kAck) {
          fault.duplicate = true;
        }
        if (sender == 0 && packet.type == PacketType::kAck) {
          fault.drop = (acks_seen++ % 2) == 0;
        }
        return fault;
      });
  std::vector<std::vector<uint8_t>> heard(kSenders + 1);
  network.node(0).SetReceiveHandler([&heard](const Packet& packet) {
    heard[packet.src].push_back(packet.payload[0]);
  });
  constexpr uint8_t kFrames = 5;
  for (NodeId id = 1; id < kSenders + 1; ++id) {
    for (uint8_t i = 0; i < kFrames; ++i) {
      network.node(id).Unicast(0, PacketType::kControl, util::Bytes{i});
    }
  }
  sim.RunUntil(sim::Seconds(10));
  for (NodeId id = 1; id < kSenders + 1; ++id) {
    EXPECT_EQ(heard[id], (std::vector<uint8_t>{0, 1, 2, 3, 4}))
        << "sender " << id;
  }
  EXPECT_GT(network.counters().at(0).injected_dup, 0u);
  EXPECT_GT(network.counters().Totals().arq_retries, 0u);
}

}  // namespace
}  // namespace ipda::net
