// Randomized differential test: net::Channel against the brute-force
// ReferenceChannel (tests/reference_channel.h), which schedules a begin
// and an end event for every (frame, neighbour) pair.
//
// One seeded script drives both on a small dense topology: transmissions
// on a coarse time grid (so frames abut and overlap exactly), link-fault
// drops, duplicates and jitter, crashes and recoveries, carrier senses
// at reception-edge nanoseconds scheduled before and after the frames
// they race, and replies sent from inside delivery handlers. The two
// channels must agree on every delivery and overheard frame (time,
// receiver, uid, seq), every IsBusy answer, the clock after each
// RunUntil, and every CounterBoard row bit for bit.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/channel.h"
#include "net/counters.h"
#include "net/topology.h"
#include "reference_channel.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace ipda::net {
namespace {

constexpr size_t kNodes = 8;
constexpr double kSide = 80.0;
constexpr double kRange = 50.0;
// One byte at 1 Mbps: frame lengths and transmit instants are multiples
// of it, so receptions abut and overlap at exact nanoseconds.
constexpr sim::SimTime kByteTime = sim::Microseconds(8);
constexpr sim::SimTime kReplyDelay = sim::Microseconds(10);

struct Action {
  enum Kind { kTransmit, kCrash, kRecover, kProbe } kind;
  sim::SimTime at = 0;
  NodeId node = 0;
  NodeId dst = kBroadcastId;  // kTransmit.
  size_t payload = 0;         // kTransmit.
  uint64_t id = 0;            // Frame seq or probe id.
};

struct Script {
  std::vector<Point2D> positions;
  std::vector<Action> actions;  // In scheduling order.
  std::vector<sim::SimTime> deadlines;
  uint64_t fault_seed = 0;
};

Script MakeScript(uint64_t seed, const PhyConfig& phy) {
  util::Rng rng(seed);
  Script script;
  for (size_t i = 0; i < kNodes; ++i) {
    script.positions.push_back(
        {rng.UniformDouble(0, kSide), rng.UniformDouble(0, kSide)});
  }
  script.fault_seed = rng.NextUint64();
  // Delays and airtimes come from the referee's own formulas.
  auto topology = Topology::Build(script.positions, kRange);
  IPDA_CHECK(topology.ok());
  sim::Simulator scratch(seed);
  CounterBoard board(kNodes);
  ReferenceChannel delays(&scratch, &*topology, phy, &board);

  // Reception edges (begin/end instants at a receiver) and their
  // neighbouring nanoseconds: where the tie-order rules decide outcomes.
  struct Edge {
    sim::SimTime at;
    NodeId node;
  };
  std::vector<Edge> edges;
  for (uint64_t i = 0; i < 120; ++i) {
    Action tx{Action::kTransmit};
    tx.at = kByteTime * static_cast<sim::SimTime>(rng.UniformUint64(1500));
    tx.node = static_cast<NodeId>(rng.UniformUint64(kNodes));
    tx.dst = rng.Bernoulli(0.25)
                 ? kBroadcastId
                 : static_cast<NodeId>(rng.UniformUint64(kNodes));
    tx.payload = rng.UniformUint64(41);
    tx.id = i;
    script.actions.push_back(tx);
    edges.push_back({tx.at + 1, tx.node});
    const auto neighbors = topology->neighbors(tx.node);
    if (neighbors.empty()) continue;
    const NodeId r = neighbors[rng.UniformUint64(neighbors.size())];
    const sim::SimTime begin = tx.at + delays.PropagationDelay(tx.node, r);
    const sim::SimTime end =
        begin + delays.AirTime(tx.payload + kFrameHeaderBytes);
    for (sim::SimTime at : {begin - 1, begin, end, end + 1}) {
      edges.push_back({at, r});
    }
  }
  // Mostly at the edge's own receiver, sometimes anywhere.
  auto pick = [&](Action::Kind kind, uint64_t id) {
    const Edge& edge = edges[rng.UniformUint64(edges.size())];
    const NodeId node = rng.Bernoulli(0.8)
                            ? edge.node
                            : static_cast<NodeId>(rng.UniformUint64(kNodes));
    return Action{kind, edge.at, node, kBroadcastId, 0, id};
  };
  for (uint64_t i = 0; i < 150; ++i) {
    script.actions.push_back(pick(Action::kProbe, i));
  }
  for (int i = 0; i < 8; ++i) {
    script.actions.push_back(pick(Action::kCrash, 0));
    script.actions.push_back(pick(Action::kRecover, 0));
  }
  rng.Shuffle(script.actions);
  for (int i = 0; i < 6; ++i) {
    script.deadlines.push_back(edges[rng.UniformUint64(edges.size())].at);
  }
  std::sort(script.deadlines.begin(), script.deadlines.end());
  script.deadlines.push_back(sim::Seconds(1));
  return script;
}

struct Logs {
  std::vector<std::string> events;  // Deliveries, overhears, probes.
  std::vector<sim::SimTime> clocks;  // now() after each RunUntil.
  std::vector<NodeCounters> counters;
};

std::string Frame(const char* what, sim::SimTime now, NodeId receiver,
                  const Packet& packet) {
  std::ostringstream out;
  out << what << " t=" << now << " rx=" << receiver << " uid=" << packet.uid
      << " seq=" << packet.seq << " src=" << packet.src
      << " dst=" << packet.dst << " bytes=" << packet.size_bytes();
  return out.str();
}

template <typename C>
Logs RunScript(const Script& script, const PhyConfig& phy, bool overhear_tap) {
  auto topology = Topology::Build(script.positions, kRange);
  IPDA_CHECK(topology.ok());
  sim::Simulator sim(7);
  CounterBoard board(kNodes);
  C channel(&sim, &*topology, phy, &board);
  Logs logs;

  util::Rng faults(script.fault_seed);
  channel.SetLinkFaultHook([&faults](NodeId, NodeId, const Packet&) {
    LinkFault fault;
    if (faults.Bernoulli(0.1)) {
      fault.drop = true;
      return fault;
    }
    fault.duplicate = faults.Bernoulli(0.1);
    switch (faults.UniformUint64(6)) {
      case 0: fault.extra_delay = 1; break;
      case 1: fault.extra_delay = kByteTime * 17; break;
      default: break;
    }
    return fault;
  });
  for (NodeId id = 0; id < kNodes; ++id) {
    channel.SetDeliveryHandler(id, [&, id](const Packet& packet) {
      logs.events.push_back(Frame("deliver", sim.now(), id, packet));
      // Some unicasts draw an ACK-like reply, sent from this handler.
      if (packet.dst != id || (packet.uid + id) % 3 != 0) return;
      Packet reply;
      reply.src = id;
      reply.dst = packet.src;
      reply.type = PacketType::kAck;
      reply.seq = 1000 + packet.uid;
      sim.After(kReplyDelay, [&channel, id, reply] {
        channel.StartTransmission(id, reply);
      });
    });
  }
  if (overhear_tap) {
    channel.SetOverhearHandler([&](const OverhearEvent& event) {
      logs.events.push_back(
          Frame("overhear", sim.now(), event.receiver, event.packet));
    });
  }

  for (const Action& action : script.actions) {
    sim.At(action.at, [&, action] {
      switch (action.kind) {
        case Action::kTransmit: {
          Packet packet;
          packet.src = action.node;
          packet.dst = action.dst;
          packet.seq = action.id;
          packet.payload.assign(action.payload, 0x5a);
          channel.StartTransmission(action.node, packet);
          break;
        }
        case Action::kCrash:
          channel.FailNode(action.node);
          break;
        case Action::kRecover:
          channel.RecoverNode(action.node);
          break;
        case Action::kProbe: {
          std::ostringstream out;
          out << "probe " << action.id << " t=" << sim.now()
              << " node=" << action.node
              << " busy=" << channel.IsBusy(action.node)
              << " failed=" << channel.IsFailed(action.node);
          logs.events.push_back(out.str());
          break;
        }
      }
    });
  }
  for (sim::SimTime deadline : script.deadlines) {
    sim.RunUntil(deadline);
    logs.clocks.push_back(sim.now());
  }
  for (NodeId id = 0; id < kNodes; ++id) {
    logs.counters.push_back(std::as_const(board).at(id));
  }
  return logs;
}

void ExpectSameCounters(const NodeCounters& a, const NodeCounters& b,
                        NodeId id) {
  EXPECT_EQ(a.frames_sent, b.frames_sent) << "node " << id;
  EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "node " << id;
  EXPECT_EQ(a.ack_frames_sent, b.ack_frames_sent) << "node " << id;
  EXPECT_EQ(a.ack_bytes_sent, b.ack_bytes_sent) << "node " << id;
  EXPECT_EQ(a.frames_delivered, b.frames_delivered) << "node " << id;
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered) << "node " << id;
  EXPECT_EQ(a.frames_collided, b.frames_collided) << "node " << id;
  EXPECT_EQ(a.frames_missed_tx, b.frames_missed_tx) << "node " << id;
  EXPECT_EQ(a.mac_drops, b.mac_drops) << "node " << id;
  EXPECT_EQ(a.arq_retries, b.arq_retries) << "node " << id;
  EXPECT_EQ(a.injected_drops, b.injected_drops) << "node " << id;
  EXPECT_EQ(a.injected_dup, b.injected_dup) << "node " << id;
  EXPECT_EQ(a.recoveries, b.recoveries) << "node " << id;
  EXPECT_EQ(std::bit_cast<uint64_t>(a.energy_tx_j),
            std::bit_cast<uint64_t>(b.energy_tx_j))
      << "node " << id;
  EXPECT_EQ(std::bit_cast<uint64_t>(a.energy_rx_j),
            std::bit_cast<uint64_t>(b.energy_rx_j))
      << "node " << id;
}

void CheckSeed(uint64_t seed, const PhyConfig& phy, bool overhear_tap) {
  SCOPED_TRACE("seed " + std::to_string(seed) +
               (overhear_tap ? " with overhear tap" : ""));
  const Script script = MakeScript(seed, phy);
  const Logs want = RunScript<ReferenceChannel>(script, phy, overhear_tap);
  const Logs got = RunScript<Channel>(script, phy, overhear_tap);
  ASSERT_EQ(want.events.size(), got.events.size());
  for (size_t i = 0; i < want.events.size(); ++i) {
    ASSERT_EQ(want.events[i], got.events[i]) << "log line " << i;
  }
  EXPECT_EQ(want.clocks, got.clocks);
  for (NodeId id = 0; id < kNodes; ++id) {
    ExpectSameCounters(want.counters[id], got.counters[id], id);
  }
}

// Real propagation delays: ~30-230 ns, different per pair.
TEST(ChannelDifferential, MatchesReferenceAtLightSpeed) {
  const PhyConfig phy;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    CheckSeed(seed, phy, /*overhear_tap=*/false);
    CheckSeed(seed, phy, /*overhear_tap=*/true);
  }
}

// Every delay floors at 1 ns, so frames sent on the byte grid abut and
// overlap at the very same nanoseconds at every receiver.
TEST(ChannelDifferential, MatchesReferenceWithUniformOneNanosecondDelay) {
  PhyConfig phy;
  phy.propagation_speed = 1e15;
  for (uint64_t seed = 101; seed <= 130; ++seed) {
    CheckSeed(seed, phy, /*overhear_tap=*/false);
    CheckSeed(seed, phy, /*overhear_tap=*/true);
  }
}

// The scripts must actually produce the situations they are meant to
// cover, or the agreement above shows little.
TEST(ChannelDifferential, ScriptsExerciseCollisionsLossesAndFaults) {
  NodeCounters totals;
  size_t busy = 0;
  for (uint64_t seed = 101; seed <= 130; ++seed) {
    PhyConfig phy;
    phy.propagation_speed = 1e15;
    const Logs logs = RunScript<Channel>(MakeScript(seed, phy), phy, false);
    for (const NodeCounters& c : logs.counters) totals += c;
    for (const std::string& line : logs.events) {
      busy += line.find("busy=1") != std::string::npos;
    }
  }
  EXPECT_GT(totals.frames_delivered, 100u);
  EXPECT_GT(totals.frames_collided, 100u);
  EXPECT_GT(totals.frames_missed_tx, 10u);
  EXPECT_GT(totals.injected_drops, 10u);
  EXPECT_GT(totals.injected_dup, 10u);
  EXPECT_GT(totals.recoveries, 10u);
  EXPECT_GT(totals.ack_frames_sent, 10u);
  EXPECT_GT(busy, 100u);
}

}  // namespace
}  // namespace ipda::net
