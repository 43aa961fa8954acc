// Channel semantics: delivery, range, collision, half-duplex loss.
// Tests drive Channel::StartTransmission directly (no MAC) to control
// timing exactly.

#include "net/channel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numbers>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/topology.h"
#include "sim/simulator.h"

namespace ipda::net {
namespace {

class ChannelTest : public ::testing::Test {
 protected:
  // Chain: 0 -- 1 -- 2 (0 and 2 out of range of each other: the classic
  // hidden-terminal layout).
  void SetUp() override {
    auto topo = Topology::Build({{0, 0}, {40, 0}, {80, 0}}, 50.0);
    ASSERT_TRUE(topo.ok());
    topology_ = std::make_unique<Topology>(std::move(*topo));
    sim_ = std::make_unique<sim::Simulator>(1);
    counters_ = std::make_unique<CounterBoard>(topology_->node_count());
    channel_ = std::make_unique<Channel>(sim_.get(), topology_.get(),
                                         PhyConfig{}, counters_.get());
    for (NodeId id = 0; id < 3; ++id) {
      channel_->SetDeliveryHandler(id, [this, id](const Packet& packet) {
        delivered_.push_back({id, packet});
      });
    }
  }

  Packet MakePacket(NodeId dst, size_t payload_bytes) {
    Packet p;
    p.dst = dst;
    p.type = PacketType::kControl;
    p.payload.assign(payload_bytes, 0xaa);
    return p;
  }

  std::unique_ptr<Topology> topology_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<CounterBoard> counters_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::pair<NodeId, Packet>> delivered_;
};

TEST_F(ChannelTest, BroadcastReachesNeighborsOnly) {
  Packet p = MakePacket(kBroadcastId, 10);
  p.src = 0;
  channel_->StartTransmission(0, p);
  sim_->RunAll();
  ASSERT_EQ(delivered_.size(), 1u);  // Node 1 only; node 2 out of range.
  EXPECT_EQ(delivered_[0].first, 1u);
}

TEST_F(ChannelTest, UnicastFiltersByDestination) {
  // Node 1 broadcasts physically; only the addressed node delivers.
  Packet p = MakePacket(2, 10);
  p.src = 1;
  channel_->StartTransmission(1, p);
  sim_->RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].first, 2u);
  // Node 0 heard it but did not deliver; counters say nothing was corrupted.
  EXPECT_EQ(counters_->at(0).frames_collided, 0u);
}

TEST_F(ChannelTest, AirTimeMatchesDataRate) {
  // 100 bytes at 1 Mbps = 800 microseconds.
  EXPECT_EQ(channel_->AirTime(100), sim::Microseconds(800));
}

TEST_F(ChannelTest, HiddenTerminalCollisionCorruptsBoth) {
  // 0 and 2 transmit simultaneously; both frames overlap at node 1.
  Packet a = MakePacket(1, 50);
  Packet b = MakePacket(1, 50);
  sim_->At(sim::Microseconds(10), [&, a] {
    channel_->StartTransmission(0, a);
  });
  sim_->At(sim::Microseconds(10), [&, b] {
    channel_->StartTransmission(2, b);
  });
  sim_->RunAll();
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(counters_->at(1).frames_collided, 2u);
}

TEST_F(ChannelTest, PartialOverlapAlsoCollides) {
  Packet a = MakePacket(1, 100);  // 800 us on air.
  Packet b = MakePacket(1, 100);
  sim_->At(sim::Microseconds(10), [&, a] {
    channel_->StartTransmission(0, a);
  });
  // Starts 500 us in: still overlapping.
  sim_->At(sim::Microseconds(510), [&, b] {
    channel_->StartTransmission(2, b);
  });
  sim_->RunAll();
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(counters_->at(1).frames_collided, 2u);
}

TEST_F(ChannelTest, AbuttingFramesDoNotCollide) {
  Packet a = MakePacket(1, 100);
  Packet b = MakePacket(1, 100);
  const sim::SimTime prop01 =
      channel_->PropagationDelay(0, 1);  // Same distance 2->1.
  (void)prop01;
  sim_->At(sim::Microseconds(10), [&, a] {
    channel_->StartTransmission(0, a);
  });
  // Second frame starts exactly when the first ends (same propagation
  // distance, so arrival abuts too).
  sim_->At(sim::Microseconds(10) + channel_->AirTime(a.size_bytes()),
           [&, b] { channel_->StartTransmission(2, b); });
  sim_->RunAll();
  EXPECT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(counters_->at(1).frames_collided, 0u);
}

TEST_F(ChannelTest, ReceiverTransmittingLosesIncomingFrame) {
  Packet incoming = MakePacket(1, 100);
  Packet outgoing = MakePacket(kBroadcastId, 100);
  // Node 1 starts transmitting first; node 0's frame arrives during it.
  sim_->At(sim::Microseconds(5), [&, outgoing] {
    channel_->StartTransmission(1, outgoing);
  });
  sim_->At(sim::Microseconds(10), [&, incoming] {
    channel_->StartTransmission(0, incoming);
  });
  sim_->RunAll();
  // Node 1 never delivers the incoming frame...
  for (const auto& [id, packet] : delivered_) {
    EXPECT_NE(id, 1u);
  }
  EXPECT_EQ(counters_->at(1).frames_missed_tx, 1u);
  // ...but nodes 0 and 2 still get node 1's broadcast (node 0's own
  // transmission overlaps reception there, so only node 2 is clean).
  bool node2_got = false;
  for (const auto& [id, packet] : delivered_) {
    node2_got = node2_got || id == 2;
  }
  EXPECT_TRUE(node2_got);
}

TEST_F(ChannelTest, StartingTransmissionCorruptsActiveReceptions) {
  Packet incoming = MakePacket(1, 100);
  Packet outgoing = MakePacket(kBroadcastId, 10);
  sim_->At(sim::Microseconds(10), [&, incoming] {
    channel_->StartTransmission(0, incoming);
  });
  // Node 1 begins transmitting mid-reception (no carrier sense here).
  sim_->At(sim::Microseconds(200), [&, outgoing] {
    channel_->StartTransmission(1, outgoing);
  });
  sim_->RunAll();
  EXPECT_EQ(counters_->at(1).frames_missed_tx, 1u);
}

TEST_F(ChannelTest, IsBusyDuringReceptionAndTransmission) {
  Packet p = MakePacket(kBroadcastId, 100);
  sim_->At(sim::Microseconds(10), [&, p] {
    channel_->StartTransmission(0, p);
  });
  bool busy_at_receiver = false;
  bool busy_at_sender = false;
  sim_->At(sim::Microseconds(400), [&] {
    busy_at_receiver = channel_->IsBusy(1);
    busy_at_sender = channel_->IsBusy(0);
  });
  bool busy_after = true;
  sim_->At(sim::Milliseconds(5), [&] { busy_after = channel_->IsBusy(1); });
  sim_->RunAll();
  EXPECT_TRUE(busy_at_receiver);
  EXPECT_TRUE(busy_at_sender);
  EXPECT_FALSE(busy_after);
}

TEST_F(ChannelTest, PropagationDelayNeverZero) {
  // Finite speed-of-light delays, floored at 1 ns so reception strictly
  // follows the transmit decision even at zero distance.
  EXPECT_GE(channel_->PropagationDelay(0, 1), sim::Nanoseconds(1));
  const sim::SimTime d01 = channel_->PropagationDelay(0, 1);  // 40 m.
  EXPECT_NEAR(static_cast<double>(d01), 40.0 / 3e8 * 1e9, 2.0);
}

// A zero speed would make every propagation delay infinite, and turning
// +inf into integer nanoseconds is undefined behaviour.
TEST(ChannelDeathTest, NonPositivePropagationSpeedIsRejected) {
  auto topology = Topology::Build({{0, 0}, {40, 0}}, 50.0);
  ASSERT_TRUE(topology.ok());
  sim::Simulator sim(1);
  CounterBoard counters(topology->node_count());
  for (double speed : {0.0, -3e8}) {
    PhyConfig phy;
    phy.propagation_speed = speed;
    EXPECT_DEATH(Channel(&sim, &*topology, phy, &counters),
                 "CHECK failed.*propagation_speed");
  }
}

TEST_F(ChannelTest, ThreeWayCollisionCorruptsAll) {
  // Add a third transmitter in range of node 1 via direct channel use.
  Packet a = MakePacket(1, 60);
  Packet b = MakePacket(1, 60);
  Packet c = MakePacket(kBroadcastId, 60);
  sim_->At(sim::Microseconds(10), [&, a] {
    channel_->StartTransmission(0, a);
  });
  sim_->At(sim::Microseconds(50), [&, b] {
    channel_->StartTransmission(2, b);
  });
  sim_->At(sim::Microseconds(90), [&, c] {
    channel_->StartTransmission(1, c);  // Node 1 transmits too!
  });
  sim_->RunAll();
  // Node 1 was receiving two frames and then transmitted over them.
  EXPECT_EQ(counters_->at(1).frames_missed_tx +
                counters_->at(1).frames_collided,
            2u);
  EXPECT_TRUE(delivered_.empty());
}

TEST_F(ChannelTest, CountersTrackBytes) {
  Packet p = MakePacket(1, 33);
  channel_->StartTransmission(0, p);
  sim_->RunAll();
  EXPECT_EQ(counters_->at(0).frames_sent, 1u);
  EXPECT_EQ(counters_->at(0).bytes_sent, 33u + kFrameHeaderBytes);
  EXPECT_EQ(counters_->at(1).frames_delivered, 1u);
  EXPECT_EQ(counters_->at(1).bytes_delivered, 33u + kFrameHeaderBytes);
}

TEST_F(ChannelTest, OverhearHandlerSeesForeignUnicast) {
  std::vector<OverhearEvent> overheard;
  channel_->SetOverhearHandler(
      [&](const OverhearEvent& event) { overheard.push_back(event); });
  Packet p = MakePacket(2, 10);  // 1 -> 2; node 0 overhears.
  channel_->StartTransmission(1, p);
  sim_->RunAll();
  ASSERT_EQ(overheard.size(), 2u);  // Node 0 and node 2 both hear it.
  EXPECT_EQ(overheard[0].packet.dst, 2u);
}

TEST_F(ChannelTest, LinkFaultDropIsCountedAtTheReceiver) {
  channel_->SetLinkFaultHook(
      [](NodeId sender, NodeId receiver, const Packet&) {
        LinkFault fault;
        fault.drop = sender == 0 && receiver == 1;
        return fault;
      });
  Packet p = MakePacket(1, 20);
  channel_->StartTransmission(0, p);
  sim_->RunAll();
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(counters_->at(1).injected_drops, 1u);
  EXPECT_EQ(counters_->at(0).frames_sent, 1u);  // Air time still spent.
}

TEST_F(ChannelTest, LinkFaultDuplicateDeliversTwiceAndIsCounted) {
  channel_->SetLinkFaultHook([](NodeId, NodeId receiver, const Packet&) {
    LinkFault fault;
    fault.duplicate = receiver == 1;
    return fault;
  });
  Packet p = MakePacket(1, 20);
  channel_->StartTransmission(0, p);
  sim_->RunAll();
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[0].second.uid, delivered_[1].second.uid);
  EXPECT_EQ(counters_->at(1).injected_dup, 1u);
}

TEST_F(ChannelTest, FailedNodeNeitherTransmitsNorReceives) {
  channel_->FailNode(1);
  EXPECT_TRUE(channel_->IsFailed(1));
  Packet from_failed = MakePacket(kBroadcastId, 10);
  channel_->StartTransmission(1, from_failed);
  Packet to_failed = MakePacket(1, 10);
  sim_->At(sim::Milliseconds(2), [&, to_failed] {
    channel_->StartTransmission(0, to_failed);
  });
  sim_->RunAll();
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(counters_->at(1).frames_sent, 0u);
}

TEST_F(ChannelTest, RecoveryRestoresDeliveryAndCountsOnce) {
  channel_->FailNode(1);
  channel_->RecoverNode(1);
  EXPECT_FALSE(channel_->IsFailed(1));
  // Recovering a healthy node is a no-op, not a second recovery.
  channel_->RecoverNode(1);
  Packet p = MakePacket(1, 10);
  channel_->StartTransmission(0, p);
  sim_->RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].first, 1u);
  EXPECT_EQ(counters_->at(1).recoveries, 1u);
}

TEST_F(ChannelTest, FrameInFlightWhenNodeRecoversStaysLost) {
  // The radio missed the preamble while down; only frames arriving after
  // the recovery are heard.
  channel_->FailNode(1);
  Packet missed = MakePacket(1, 100);
  sim_->At(sim::Microseconds(10), [&, missed] {
    channel_->StartTransmission(0, missed);
  });
  sim_->At(sim::Microseconds(200), [&] { channel_->RecoverNode(1); });
  Packet heard = MakePacket(1, 100);
  sim_->At(sim::Milliseconds(5), [&, heard] {
    channel_->StartTransmission(0, heard);
  });
  sim_->RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].first, 1u);
}

TEST_F(ChannelTest, UidAssignedUniquely) {
  Packet p = MakePacket(1, 10);
  channel_->StartTransmission(0, p);
  // Second frame strictly after the first finishes, so both deliver.
  sim_->At(sim::Milliseconds(2), [&, p] {
    channel_->StartTransmission(0, p);
  });
  sim_->RunAll();
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_NE(delivered_[0].second.uid, delivered_[1].second.uid);
}

TEST_F(ChannelTest, HandlerReadsItsFrameAfterTheTableGrowsUnderIt) {
  // Node 1's handler sends 200 frames from node 2 before it reads the
  // frame it was handed: the frame table grows many times over while the
  // handler holds a reference into it.
  Packet sent = MakePacket(kBroadcastId, 40);
  for (size_t i = 0; i < sent.payload.size(); ++i) {
    sent.payload[i] = static_cast<uint8_t>(i);
  }
  bool sent_more = false;
  Packet read;
  channel_->SetDeliveryHandler(1, [&](const Packet& packet) {
    if (sent_more) return;
    sent_more = true;
    for (int i = 0; i < 200; ++i) {
      channel_->StartTransmission(2, MakePacket(kBroadcastId, 8));
    }
    read = packet;
  });
  channel_->StartTransmission(0, sent);
  sim_->RunAll();
  ASSERT_TRUE(sent_more);
  EXPECT_EQ(read.uid, 1u);
  EXPECT_EQ(read.src, sent.src);
  EXPECT_EQ(read.payload, sent.payload);
}

// ---------------------------------------------------------------------
// Tie order. Events at one nanosecond run in scheduling order, and a
// reception's begin and end take their places in that order when the
// sender transmits. These cases pin the outcomes at such ties.

TEST_F(ChannelTest, CarrierSenseAtReceptionEdgesFollowsSchedulingOrder) {
  // 1 -> 0 unicast: node 0 is addressed, node 2 only hears it.
  const sim::SimTime start = sim::Microseconds(10);
  const Packet p = MakePacket(0, 30);
  const sim::SimTime begin = start + channel_->PropagationDelay(1, 2);
  const sim::SimTime end = begin + channel_->AirTime(p.size_bytes());
  ASSERT_EQ(channel_->PropagationDelay(1, 0), channel_->PropagationDelay(1, 2));
  // Probes scheduled before the transmission run before its begin and
  // end; probes scheduled after it run after them.
  bool early_at_begin[3] = {true, true, true};
  bool early_at_end[3] = {false, false, false};
  bool late_at_begin[3] = {false, false, false};
  bool late_at_end[3] = {true, true, true};
  sim_->At(begin, [&] {
    for (NodeId id : {0u, 2u}) early_at_begin[id] = channel_->IsBusy(id);
  });
  sim_->At(end, [&] {
    for (NodeId id : {0u, 2u}) early_at_end[id] = channel_->IsBusy(id);
  });
  sim_->At(start, [&, p] {
    channel_->StartTransmission(1, p);
    sim_->At(begin, [&] {
      for (NodeId id : {0u, 2u}) late_at_begin[id] = channel_->IsBusy(id);
    });
    sim_->At(end, [&] {
      for (NodeId id : {0u, 2u}) late_at_end[id] = channel_->IsBusy(id);
    });
  });
  sim_->RunAll();
  for (NodeId id : {0u, 2u}) {
    EXPECT_FALSE(early_at_begin[id]) << "node " << id;
    EXPECT_TRUE(early_at_end[id]) << "node " << id;
    EXPECT_TRUE(late_at_begin[id]) << "node " << id;
    EXPECT_FALSE(late_at_end[id]) << "node " << id;
  }
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].first, 0u);
}

// A destination no node answers to: every receiver only overhears.
constexpr NodeId kNoSuchNode = 99;

// Frame b from node 2 reaches node 1 exactly when frame a from node 0
// ends there: a link delay of one airtime pushes b back. Whether the two
// collide depends only on which was transmitted first.
void RunAbuttingPair(Channel* channel, sim::Simulator* sim,
                     bool later_frame_first, NodeId dst) {
  Packet a;
  a.dst = dst;
  a.payload.assign(100, 0xaa);
  Packet b = a;
  const sim::SimTime air = channel->AirTime(a.size_bytes());
  ASSERT_EQ(channel->PropagationDelay(0, 1), channel->PropagationDelay(2, 1));
  channel->SetLinkFaultHook([air](NodeId sender, NodeId receiver,
                                  const Packet&) {
    LinkFault fault;
    if (sender == 2 && receiver == 1) fault.extra_delay = air;
    return fault;
  });
  const sim::SimTime start = sim::Microseconds(10);
  if (later_frame_first) {
    sim->At(start, [channel, b] { channel->StartTransmission(2, b); });
  }
  sim->At(start, [channel, a] { channel->StartTransmission(0, a); });
  if (!later_frame_first) {
    sim->At(start, [channel, b] { channel->StartTransmission(2, b); });
  }
  sim->RunAll();
}

TEST_F(ChannelTest, AbuttingFramesCollideWhenTheLaterOneWasSentFirst) {
  RunAbuttingPair(channel_.get(), sim_.get(),
                  /*later_frame_first=*/true, /*dst=*/1);
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(counters_->at(1).frames_collided, 2u);
}

TEST_F(ChannelTest, AbuttingFramesSurviveWhenTheLaterOneWasSentSecond) {
  RunAbuttingPair(channel_.get(), sim_.get(),
                  /*later_frame_first=*/false, /*dst=*/1);
  EXPECT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(counters_->at(1).frames_collided, 0u);
}

TEST_F(ChannelTest, AbuttingOverheardFramesFollowTheSameTieRule) {
  // Addressed to someone else: node 1 only overhears both frames.
  RunAbuttingPair(channel_.get(), sim_.get(),
                  /*later_frame_first=*/true, /*dst=*/kNoSuchNode);
  EXPECT_EQ(counters_->at(1).frames_collided, 2u);
}

TEST_F(ChannelTest, CrashInsidePropagationGapLosesTheFrame) {
  // 0 -> 1 leaves at 10 us and reaches node 1 ~133 ns later.
  const sim::SimTime start = sim::Microseconds(10);
  ASSERT_GT(channel_->PropagationDelay(0, 1), sim::Nanoseconds(100));
  const Packet p = MakePacket(1, 20);
  sim_->At(start, [&, p] { channel_->StartTransmission(0, p); });
  sim_->At(start + sim::Nanoseconds(50), [&] { channel_->FailNode(1); });
  sim_->At(sim::Milliseconds(2), [&] { channel_->RecoverNode(1); });
  sim_->RunAll();
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(counters_->at(1).recoveries, 1u);
  EXPECT_EQ(counters_->at(1).frames_collided, 0u);
}

TEST_F(ChannelTest, RecoveryInsidePropagationGapHearsTheFrame) {
  const sim::SimTime start = sim::Microseconds(10);
  const Packet p = MakePacket(1, 20);
  sim_->At(start, [&, p] { channel_->StartTransmission(0, p); });
  sim_->At(start + sim::Nanoseconds(50), [&] { channel_->FailNode(1); });
  sim_->At(start + sim::Nanoseconds(100), [&] { channel_->RecoverNode(1); });
  sim_->RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].first, 1u);
  EXPECT_EQ(counters_->at(1).recoveries, 1u);
}

TEST_F(ChannelTest, OwnTransmissionInsidePropagationGapLosesTheFrame) {
  // 1 -> 0 unicast; nodes 0 (addressed) and 2 (overhearing) both start
  // transmitting before it reaches them.
  const sim::SimTime start = sim::Microseconds(10);
  const Packet p = MakePacket(0, 20);
  const Packet own = MakePacket(kBroadcastId, 1);
  sim_->At(start, [&, p] { channel_->StartTransmission(1, p); });
  sim_->At(start + sim::Nanoseconds(50), [&, own] {
    channel_->StartTransmission(0, own);
    channel_->StartTransmission(2, own);
  });
  sim_->RunAll();
  for (const auto& [id, packet] : delivered_) EXPECT_NE(id, 0u);
  EXPECT_EQ(counters_->at(0).frames_missed_tx, 1u);
  EXPECT_EQ(counters_->at(2).frames_missed_tx, 1u);
}

// An earlier frame x, then a long frame and a later short one that end
// out of order at node 1: energy accumulates in end order, x, short, long.
void CheckEnergyInEndOrder(Channel* channel, sim::Simulator* sim,
                           const CounterBoard& counters, NodeId dst_from_0,
                           NodeId dst_from_2) {
  Packet x;
  x.dst = dst_from_0;
  x.payload.assign(1, 0x11);
  Packet long_frame = x;
  long_frame.payload.assign(100, 0x22);
  Packet short_frame;
  short_frame.dst = dst_from_2;
  short_frame.payload.assign(2, 0x33);
  sim->At(sim::Microseconds(10),
          [channel, x] { channel->StartTransmission(0, x); });
  sim->At(sim::Milliseconds(1), [channel, long_frame] {
    channel->StartTransmission(0, long_frame);
  });
  sim->At(sim::Milliseconds(1) + sim::Microseconds(10),
          [channel, short_frame] {
            channel->StartTransmission(2, short_frame);
          });
  sim->RunAll();
  const EnergyModel& model = channel->config().energy;
  const double rx_x = model.RxCost(x.size_bytes());
  const double rx_short = model.RxCost(short_frame.size_bytes());
  const double rx_long = model.RxCost(long_frame.size_bytes());
  const double end_order = ((0.0 + rx_x) + rx_short) + rx_long;
  const double start_order = ((0.0 + rx_x) + rx_long) + rx_short;
  // The sizes are chosen so the two orders differ in the last bit.
  ASSERT_NE(std::bit_cast<uint64_t>(end_order),
            std::bit_cast<uint64_t>(start_order));
  EXPECT_EQ(std::bit_cast<uint64_t>(counters.at(1).energy_rx_j),
            std::bit_cast<uint64_t>(end_order));
  EXPECT_EQ(counters.at(1).frames_collided, 2u);
}

TEST_F(ChannelTest, EnergyOfAddressedFramesSumsInEndOrder) {
  CheckEnergyInEndOrder(channel_.get(), sim_.get(), *counters_, 1, 1);
}

TEST_F(ChannelTest, EnergyOfOverheardFramesSumsInEndOrder) {
  CheckEnergyInEndOrder(channel_.get(), sim_.get(), *counters_, 2, 0);
}

TEST_F(ChannelTest, ClockAfterRunUntilStopsAtTheLastReceptionEdge) {
  // 1 -> 0 unicast at t = 0: both neighbours' receptions begin at `begin`
  // and end at `end`; node 2's end is the last event of the run.
  const Packet p = MakePacket(0, 30);
  const sim::SimTime begin = channel_->PropagationDelay(1, 2);
  const sim::SimTime end = begin + channel_->AirTime(p.size_bytes());
  channel_->StartTransmission(1, p);
  sim_->RunUntil(begin - 1);
  EXPECT_EQ(sim_->now(), 0);
  sim_->RunUntil(end - 1);
  EXPECT_EQ(sim_->now(), begin);
  sim_->RunUntil(sim::Seconds(1));
  EXPECT_EQ(sim_->now(), end);
  EXPECT_EQ(counters_->at(2).energy_rx_j,
            channel_->config().energy.RxCost(p.size_bytes()));
}

// A channel over `topology` whose deliveries are logged, and the check
// that a broadcast from node 0 reaches every current neighbor one
// propagation delay (from the current positions) plus an airtime later,
// in key order: by time, then by fan-out index.
class BroadcastLog {
 public:
  BroadcastLog(Topology* topology, PhyConfig phy)
      : topology_(topology),
        counters_(topology->node_count()),
        channel_(&sim_, topology, phy, &counters_) {
    for (NodeId id = 0; id < topology->node_count(); ++id) {
      channel_.SetDeliveryHandler(id, [this, id](const Packet&) {
        heard_.emplace_back(id, sim_.now());
      });
    }
  }

  const Channel& channel() const { return channel_; }

  // Returns the number of receivers.
  size_t ExpectComputedTimes(sim::SimTime at) {
    Packet packet;
    packet.dst = kBroadcastId;
    packet.payload.assign(10, 0xaa);
    heard_.clear();
    sim_.At(at, [&] { channel_.StartTransmission(0, packet); });
    sim_.RunAll();
    const sim::SimTime air = channel_.AirTime(packet.size_bytes());
    std::vector<std::pair<NodeId, sim::SimTime>> want;
    for (NodeId r : topology_->neighbors(0)) {
      want.emplace_back(r, at + channel_.PropagationDelay(0, r) + air);
    }
    std::stable_sort(want.begin(), want.end(), [](const auto& a,
                                                  const auto& b) {
      return a.second < b.second;
    });
    EXPECT_EQ(heard_, want);
    return heard_.size();
  }

 private:
  Topology* topology_;
  sim::Simulator sim_{1};
  CounterBoard counters_;
  Channel channel_;
  std::vector<std::pair<NodeId, sim::SimTime>> heard_;
};

// The channel keeps each sender's propagation delays and reception order
// from its first send while the topology is as built. Every mutation,
// including one Compact() has folded back into the CSR arrays, must send
// it back to computing them from the geometry of the moment.
struct Mutation {
  const char* name;
  std::function<void(Topology&)> apply;
};

void PrintTo(const Mutation& mutation, std::ostream* out) {
  *out << mutation.name;
}

class ChannelMutationTest : public ::testing::TestWithParam<Mutation> {};

TEST_P(ChannelMutationTest, SwitchesTheChannelToComputedDelays) {
  // Node 0 reaches 1, 2 and 3, 10, 20 and 30 m away; 4 is out of range.
  auto topology = Topology::Build(
      {{0, 0}, {10, 0}, {20, 0}, {30, 0}, {90, 0}}, 50.0);
  ASSERT_TRUE(topology.ok());
  BroadcastLog log(&*topology, PhyConfig{});
  ASSERT_EQ(log.ExpectComputedTimes(0), 3u);
  GetParam().apply(*topology);
  EXPECT_GT(topology->mutations(), 0u);
  log.ExpectComputedTimes(sim::Seconds(1));
}

INSTANTIATE_TEST_SUITE_P(
    Mutations, ChannelMutationTest,
    ::testing::Values(
        // Same edges, shorter delay to 3.
        Mutation{"MoveNode",
                 [](Topology& t) { t.MoveNode(3, Point2D{5, 0}); }},
        // The neighbor list shifts: 2 takes 1's old place.
        Mutation{"DetachNode", [](Topology& t) { t.DetachNode(1); }},
        // 3 rejoins where it moved while detached.
        Mutation{"AttachNode",
                 [](Topology& t) {
                   t.DetachNode(3);
                   t.MoveNode(3, Point2D{5, 0});
                   t.AttachNode(3);
                 }},
        // Compact() clears the overlay, not the new geometry.
        Mutation{"Compact",
                 [](Topology& t) {
                   t.MoveNode(3, Point2D{5, 0});
                   t.DetachNode(1);
                   t.Compact();
                   ASSERT_FALSE(t.mutated());
                 }}),
    [](const ::testing::TestParamInfo<Mutation>& info) {
      return std::string(info.param.name);
    });

// The table holds delays up to 65,535 ns and up to 256 neighbors; a
// sender beyond either computes its fan-out.
TEST(ChannelFanOut, SenderWithALongDelayComputesItsFanOut) {
  auto topology = Topology::Build({{0, 0}, {10, 0}, {40, 0}}, 50.0);
  ASSERT_TRUE(topology.ok());
  PhyConfig phy;
  phy.propagation_speed = 1e3;  // 10 ms and 40 ms.
  BroadcastLog log(&*topology, phy);
  EXPECT_EQ(log.ExpectComputedTimes(0), 2u);
  EXPECT_EQ(log.ExpectComputedTimes(sim::Seconds(1)), 2u);
}

TEST(ChannelFanOut, SenderWithOver256NeighborsComputesItsFanOut) {
  // 300 nodes on a 1-m circle around node 0, in id order around it.
  std::vector<Point2D> positions{{0, 0}};
  for (int i = 0; i < 300; ++i) {
    const double angle = 2 * std::numbers::pi * i / 300;
    positions.push_back({std::cos(angle), std::sin(angle)});
  }
  auto topology = Topology::Build(positions, 50.0);
  ASSERT_TRUE(topology.ok());
  PhyConfig phy;
  phy.propagation_speed = 1e7;  // About 100 ns each: ties by index.
  BroadcastLog log(&*topology, phy);
  EXPECT_EQ(log.ExpectComputedTimes(0), 300u);
  EXPECT_EQ(log.ExpectComputedTimes(sim::Seconds(1)), 300u);
}

// The table's order sorts keys (delay << 8) | k. With 256 neighbors at
// one distance every delay ties, and index 255 fills the key's low byte.
TEST(ChannelFanOut, SenderWith256TiedNeighborsOrdersThemByIndex) {
  std::vector<Point2D> positions{{0, 0}};
  for (int i = 0; i < 256; ++i) {
    const double angle = 2 * std::numbers::pi * i / 256;
    positions.push_back({1.003 * std::cos(angle), 1.003 * std::sin(angle)});
  }
  auto topology = Topology::Build(positions, 50.0);
  ASSERT_TRUE(topology.ok());
  PhyConfig phy;
  phy.propagation_speed = 1e7;  // 100.3 ns, truncated to 100 for every one.
  BroadcastLog log(&*topology, phy);
  ASSERT_EQ(topology->neighbors(0).size(), 256u);
  for (NodeId r : topology->neighbors(0)) {
    ASSERT_EQ(log.channel().PropagationDelay(0, r), 100);
  }
  EXPECT_EQ(log.ExpectComputedTimes(0), 256u);
  topology->MoveNode(256, Point2D{0.5, 0});
  EXPECT_EQ(log.ExpectComputedTimes(sim::Seconds(1)), 256u);
}

// Delays that fall as the fan-out index rises: the order reverses the
// neighbor list.
TEST(ChannelFanOut, DelaysFallingWithTheIndexReverseTheOrder) {
  // Node i sits 50 - i m from node 0 (3.3 ns apart).
  std::vector<Point2D> positions{{0, 0}};
  for (int i = 1; i <= 40; ++i) positions.push_back({50.0 - i, 0});
  auto topology = Topology::Build(positions, 50.0);
  ASSERT_TRUE(topology.ok());
  BroadcastLog log(&*topology, PhyConfig{});
  const NeighborSpan neighbors = topology->neighbors(0);
  ASSERT_EQ(neighbors.size(), 40u);
  for (size_t k = 1; k < neighbors.size(); ++k) {
    ASSERT_GT(log.channel().PropagationDelay(0, neighbors[k - 1]),
              log.channel().PropagationDelay(0, neighbors[k]));
  }
  EXPECT_EQ(log.ExpectComputedTimes(0), 40u);
  topology->MoveNode(1, Point2D{5.5, 0});
  EXPECT_EQ(log.ExpectComputedTimes(sim::Seconds(1)), 40u);
}

}  // namespace
}  // namespace ipda::net
