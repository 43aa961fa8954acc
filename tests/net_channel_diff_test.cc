// Randomized differential test: net::Channel against the brute-force
// ReferenceChannel (tests/reference_channel.h), which schedules a begin
// and an end event for every (frame, neighbour) pair.
//
// One seeded script drives both, on a small dense topology (nearly a
// clique) or a sparse one (receiver sets only partly intersect):
// transmissions on a coarse time grid (so frames abut and overlap
// exactly), link-fault drops, duplicates and jitter, crashes and
// recoveries, nodes moved, detached and attached while frames are on the
// air, carrier senses at reception-edge nanoseconds scheduled before and
// after the frames they race, and replies sent from inside delivery
// handlers. The two channels must agree on every delivery and overheard
// frame (time, receiver, uid, seq), every IsBusy answer, and, after each
// RunUntil, the clock and every CounterBoard row bit for bit.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <type_traits>
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

constexpr double kRange = 50.0;

// Node count and square side of a script's deployment.
struct Shape {
  size_t nodes;
  double side;
};
constexpr Shape kDense{8, 80.0};
constexpr Shape kSparse{16, 160.0};
// A clique of 80: a broadcast has 79 ends, and every two frames share
// receivers.
constexpr Shape kWide{80, 30.0};
// One byte at 1 Mbps: frame lengths and transmit instants are multiples
// of it, so receptions abut and overlap at exact nanoseconds.
constexpr sim::SimTime kByteTime = sim::Microseconds(8);
constexpr sim::SimTime kReplyDelay = sim::Microseconds(10);

struct Action {
  enum Kind {
    kTransmit,
    kCrash,
    kRecover,
    kProbe,
    kMove,
    kDetach,
    kAttach
  } kind;
  sim::SimTime at = 0;
  NodeId node = 0;
  NodeId dst = kBroadcastId;  // kTransmit.
  size_t payload = 0;         // kTransmit.
  uint64_t id = 0;            // Frame seq or probe id.
  Point2D to{};               // kMove.
};

struct Script {
  std::vector<Point2D> positions;
  std::vector<Action> actions;  // In scheduling order.
  std::vector<sim::SimTime> deadlines;
  uint64_t fault_seed = 0;
  bool link_faults = true;  // Install the link-fault hook.
};

Script MakeScript(uint64_t seed, const PhyConfig& phy, Shape shape) {
  util::Rng rng(seed);
  Script script;
  const size_t nodes = shape.nodes;
  auto random_point = [&] {
    return Point2D{rng.UniformDouble(0, shape.side),
                   rng.UniformDouble(0, shape.side)};
  };
  for (size_t i = 0; i < nodes; ++i) {
    script.positions.push_back(random_point());
  }
  script.fault_seed = rng.NextUint64();
  // Delays and airtimes come from the referee's own formulas.
  auto topology = Topology::Build(script.positions, kRange);
  IPDA_CHECK(topology.ok());
  sim::Simulator scratch(seed);
  CounterBoard board(nodes);
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
    tx.node = static_cast<NodeId>(rng.UniformUint64(nodes));
    tx.dst = rng.Bernoulli(0.25)
                 ? kBroadcastId
                 : static_cast<NodeId>(rng.UniformUint64(nodes));
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
                            : static_cast<NodeId>(rng.UniformUint64(nodes));
    return Action{kind, edge.at, node, kBroadcastId, 0, id};
  };
  for (uint64_t i = 0; i < 150; ++i) {
    script.actions.push_back(pick(Action::kProbe, i));
  }
  for (int i = 0; i < 8; ++i) {
    script.actions.push_back(pick(Action::kCrash, 0));
    script.actions.push_back(pick(Action::kRecover, 0));
  }
  // Topology churn at reception edges, so frames already on the air keep
  // the receivers and delays they were sent with.
  for (int i = 0; i < 6; ++i) {
    Action move = pick(Action::kMove, 0);
    move.to = random_point();
    script.actions.push_back(move);
  }
  for (int i = 0; i < 3; ++i) {
    script.actions.push_back(pick(Action::kDetach, 0));
    script.actions.push_back(pick(Action::kAttach, 0));
  }
  rng.Shuffle(script.actions);
  for (int i = 0; i < 6; ++i) {
    script.deadlines.push_back(edges[rng.UniformUint64(edges.size())].at);
  }
  std::sort(script.deadlines.begin(), script.deadlines.end());
  script.deadlines.push_back(sim::Seconds(1));
  return script;
}

// The script without its link faults and topology actions: every frame
// then fans out through the channel's per-sender table, which the full
// scripts leave after their first move, detach or attach.
Script WithoutFaultsOrChurn(Script script) {
  std::erase_if(script.actions, [](const Action& action) {
    return action.kind == Action::kMove || action.kind == Action::kDetach ||
           action.kind == Action::kAttach;
  });
  script.link_faults = false;
  return script;
}

struct Logs {
  std::vector<std::string> events;  // Deliveries, overhears, probes.
  std::vector<sim::SimTime> clocks;  // now() after each RunUntil.
  // Every node's counters after each RunUntil.
  std::vector<std::vector<NodeCounters>> counters;
  // Every reception in the order it ended (ReferenceChannel runs only).
  std::vector<ReferenceChannel::Ended> ended;
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
  const size_t nodes = script.positions.size();
  sim::Simulator sim(7);
  CounterBoard board(nodes);
  C channel(&sim, &*topology, phy, &board);
  Logs logs;

  util::Rng faults(script.fault_seed);
  if (script.link_faults) {
    channel.SetLinkFaultHook([&faults](NodeId, NodeId, const Packet&) {
      LinkFault fault;
      if (faults.Bernoulli(0.1)) {
        fault.drop = true;
        return fault;
      }
      fault.duplicate = faults.Bernoulli(0.1);
      // A sixth of the links add 1 ns, a sixth 17 byte times, and a rare
      // one 100 ms, which keeps its frame on the air long after the rest.
      const uint64_t draw = faults.UniformUint64(60);
      if (draw < 10) {
        fault.extra_delay = 1;
      } else if (draw < 20) {
        fault.extra_delay = kByteTime * 17;
      } else if (draw == 20) {
        fault.extra_delay = sim::Milliseconds(100);
      }
      return fault;
    });
  }
  for (NodeId id = 0; id < nodes; ++id) {
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
        case Action::kMove:
          topology->MoveNode(action.node, action.to);
          break;
        case Action::kDetach:
          topology->DetachNode(action.node);
          break;
        case Action::kAttach:
          topology->AttachNode(action.node);
          break;
      }
    });
  }
  for (sim::SimTime deadline : script.deadlines) {
    sim.RunUntil(deadline);
    logs.clocks.push_back(sim.now());
    std::vector<NodeCounters>& rows = logs.counters.emplace_back();
    for (NodeId id = 0; id < nodes; ++id) {
      rows.push_back(std::as_const(board).at(id));
    }
  }
  if constexpr (std::is_same_v<C, ReferenceChannel>) {
    logs.ended = channel.ended();
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

void CheckSeed(uint64_t seed, const PhyConfig& phy, Shape shape,
               bool overhear_tap, bool plain) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " on " +
               std::to_string(shape.nodes) + " nodes" +
               (overhear_tap ? " with overhear tap" : "") +
               (plain ? " without faults or churn" : ""));
  const Script script = plain
                            ? WithoutFaultsOrChurn(MakeScript(seed, phy, shape))
                            : MakeScript(seed, phy, shape);
  const Logs want = RunScript<ReferenceChannel>(script, phy, overhear_tap);
  const Logs got = RunScript<Channel>(script, phy, overhear_tap);
  ASSERT_EQ(want.events.size(), got.events.size());
  for (size_t i = 0; i < want.events.size(); ++i) {
    ASSERT_EQ(want.events[i], got.events[i]) << "log line " << i;
  }
  EXPECT_EQ(want.clocks, got.clocks);
  for (size_t run = 0; run < want.counters.size(); ++run) {
    SCOPED_TRACE("after RunUntil #" + std::to_string(run));
    for (NodeId id = 0; id < shape.nodes; ++id) {
      ExpectSameCounters(want.counters[run][id], got.counters[run][id], id);
    }
  }
}

// Every delay floors at 1 ns, so frames sent on the byte grid abut and
// overlap at the very same nanoseconds at every receiver.
PhyConfig UniformOneNanosecondDelay() {
  PhyConfig phy;
  phy.propagation_speed = 1e15;
  return phy;
}

void CheckSeeds(uint64_t first, uint64_t last, const PhyConfig& phy,
                Shape shape, bool plain = false) {
  for (uint64_t seed = first; seed <= last; ++seed) {
    CheckSeed(seed, phy, shape, /*overhear_tap=*/false, plain);
    CheckSeed(seed, phy, shape, /*overhear_tap=*/true, plain);
  }
}

// Real propagation delays: ~30-230 ns, different per pair.
TEST(ChannelDifferential, MatchesReferenceAtLightSpeed) {
  CheckSeeds(1, 30, PhyConfig{}, kDense);
}

TEST(ChannelDifferential, MatchesReferenceWithUniformOneNanosecondDelay) {
  CheckSeeds(101, 130, UniformOneNanosecondDelay(), kDense);
}

TEST(ChannelDifferential, MatchesReferenceOnSparseTopology) {
  CheckSeeds(201, 230, PhyConfig{}, kSparse);
  CheckSeeds(301, 330, UniformOneNanosecondDelay(), kSparse);
}

TEST(ChannelDifferential, MatchesReferenceOnWideClique) {
  CheckSeeds(401, 405, PhyConfig{}, kWide);
  CheckSeeds(501, 505, UniformOneNanosecondDelay(), kWide);
}

TEST(ChannelDifferential, MatchesReferenceWithoutFaultsOrChurn) {
  CheckSeeds(601, 630, PhyConfig{}, kDense, /*plain=*/true);
  CheckSeeds(701, 730, UniformOneNanosecondDelay(), kDense, /*plain=*/true);
  CheckSeeds(801, 830, PhyConfig{}, kSparse, /*plain=*/true);
  CheckSeeds(901, 930, UniformOneNanosecondDelay(), kSparse, /*plain=*/true);
  CheckSeeds(1001, 1005, PhyConfig{}, kWide, /*plain=*/true);
  CheckSeeds(1101, 1105, UniformOneNanosecondDelay(), kWide, /*plain=*/true);
}

// Nightly (ctest soak_net_channel_diff): 1,000 seeds per delay mode,
// dense and sparse, with and without the overhear tap.
TEST(ChannelDifferential, DISABLED_Soak) {
  for (const Shape shape : {kDense, kSparse}) {
    CheckSeeds(10'001, 11'000, PhyConfig{}, shape);
    CheckSeeds(20'001, 21'000, UniformOneNanosecondDelay(), shape);
  }
}

// Receptions at one receiver, of frames of different lengths, where the
// later-sent frame ends first: the case where adding a receiver's energy
// in any order but end order changes its bits. `overheard` counts those
// whose earlier-sent frame was not addressed to that receiver.
struct ReverseEnds {
  size_t pairs = 0;
  size_t overheard = 0;
};

ReverseEnds CountReverseEnds(const Logs& logs) {
  ReverseEnds count;
  const auto& ended = logs.ended;
  for (size_t i = 0; i < ended.size(); ++i) {
    for (size_t j = i + 1; j < ended.size(); ++j) {
      const auto& first = ended[j];  // Ended later, sent earlier?
      const auto& second = ended[i];
      if (first.receiver != second.receiver || first.uid >= second.uid ||
          first.bytes == second.bytes || first.end <= second.end) {
        continue;
      }
      ++count.pairs;
      count.overheard += !first.addressed;
    }
  }
  return count;
}

// The scripts must actually produce the situations they are meant to
// cover, or the agreement above shows little.
TEST(ChannelDifferential, ScriptsExerciseCollisionsLossesAndFaults) {
  for (const Shape shape : {kDense, kSparse}) {
    SCOPED_TRACE(std::to_string(shape.nodes) + " nodes");
    NodeCounters totals;
    size_t busy = 0;
    ReverseEnds reverse;
    for (uint64_t seed = 101; seed <= 130; ++seed) {
      const PhyConfig phy = UniformOneNanosecondDelay();
      const Logs logs = RunScript<ReferenceChannel>(
          MakeScript(seed, phy, shape), phy, false);
      for (const NodeCounters& c : logs.counters.back()) totals += c;
      for (const std::string& line : logs.events) {
        busy += line.find("busy=1") != std::string::npos;
      }
      const ReverseEnds seen = CountReverseEnds(logs);
      reverse.pairs += seen.pairs;
      reverse.overheard += seen.overheard;
    }
    EXPECT_GT(totals.frames_delivered, 100u);
    EXPECT_GT(totals.frames_collided, 100u);
    EXPECT_GT(totals.frames_missed_tx, 10u);
    EXPECT_GT(totals.injected_drops, 10u);
    EXPECT_GT(totals.injected_dup, 10u);
    EXPECT_GT(totals.recoveries, 10u);
    EXPECT_GT(totals.ack_frames_sent, 10u);
    EXPECT_GT(busy, 100u);
    EXPECT_GT(reverse.pairs, 100u);
    EXPECT_GT(reverse.overheard, 50u);
  }
}

// Churn must land while frames are on the air, and the sparse shape must
// give receiver sets that only partly intersect.
TEST(ChannelDifferential, ScriptsChurnMidFrameAndSparseSetsPartlyIntersect) {
  for (const Shape shape : {kDense, kSparse}) {
    size_t churn_mid_frame = 0;
    for (uint64_t seed = 201; seed <= 230; ++seed) {
      const Script script = MakeScript(seed, PhyConfig{}, shape);
      const Logs logs =
          RunScript<ReferenceChannel>(script, PhyConfig{}, false);
      for (const Action& action : script.actions) {
        if (action.kind != Action::kMove && action.kind != Action::kDetach &&
            action.kind != Action::kAttach) {
          continue;
        }
        churn_mid_frame += std::any_of(
            logs.ended.begin(), logs.ended.end(), [&](const auto& rx) {
              return rx.begin < action.at && action.at < rx.end;
            });
      }
    }
    EXPECT_GT(churn_mid_frame, 100u) << shape.nodes << " nodes";
  }
  // Two senders' neighbourhoods: mostly a clique when dense, overlapping
  // only in part when sparse.
  size_t partial = 0;
  size_t pairs = 0;
  for (uint64_t seed = 201; seed <= 230; ++seed) {
    const Script script = MakeScript(seed, PhyConfig{}, kSparse);
    auto topology = Topology::Build(script.positions, kRange);
    ASSERT_TRUE(topology.ok());
    for (NodeId a = 0; a < kSparse.nodes; ++a) {
      for (NodeId b = a + 1; b < kSparse.nodes; ++b) {
        const auto na = topology->neighbors(a);
        const auto nb = topology->neighbors(b);
        std::vector<NodeId> common;
        std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                              std::back_inserter(common));
        if (common.empty()) continue;
        ++pairs;
        partial += common.size() < na.size() || common.size() < nb.size();
      }
    }
  }
  EXPECT_GT(pairs, 100u);
  EXPECT_GT(partial * 2, pairs);
}

}  // namespace
}  // namespace ipda::net
