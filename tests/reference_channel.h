// Brute-force referee for net::Channel: the shared medium as two
// scheduler events per (frame, neighbour) — BeginReception when the
// frame reaches a receiver, EndReception when it has passed — with each
// receiver's in-flight receptions marked collided, lost-to-transmit or
// dead as those events run. It is the direct model the channel's air
// table must reproduce: tests/net_channel_diff_test.cc drives both with
// one seeded script and requires identical behaviour.

#ifndef IPDA_TESTS_REFERENCE_CHANNEL_H_
#define IPDA_TESTS_REFERENCE_CHANNEL_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "net/channel.h"
#include "net/counters.h"
#include "net/packet.h"
#include "net/radio_state.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace ipda::net {

class ReferenceChannel {
 public:
  ReferenceChannel(sim::Simulator* sim, const Topology* topology,
                   PhyConfig config, CounterBoard* counters)
      : sim_(sim),
        topology_(topology),
        config_(config),
        counters_(counters),
        delivery_(topology->node_count()),
        active_rx_(topology->node_count()),
        radio_(topology->node_count()) {}

  ReferenceChannel(const ReferenceChannel&) = delete;
  ReferenceChannel& operator=(const ReferenceChannel&) = delete;

  void SetDeliveryHandler(NodeId id, Channel::DeliveryHandler handler) {
    delivery_[id] = std::move(handler);
  }
  void SetOverhearHandler(Channel::OverhearHandler handler) {
    overhear_ = std::move(handler);
  }
  void SetLinkFaultHook(Channel::LinkFaultHook hook) {
    link_fault_ = std::move(hook);
  }

  void FailNode(NodeId id) {
    radio_.failed[id] = 1;
    for (auto& rx : active_rx_[id]) rx.dead_rx = true;
  }
  void RecoverNode(NodeId id) {
    if (radio_.failed[id] == 0) return;
    radio_.failed[id] = 0;
    counters_->at(id).recoveries += 1;
  }
  bool IsFailed(NodeId id) const { return radio_.failed[id] != 0; }

  sim::SimTime AirTime(size_t bytes) const {
    return sim::SecondsF(static_cast<double>(bytes) * 8.0 /
                         config_.data_rate_bps);
  }
  sim::SimTime PropagationDelay(NodeId a, NodeId b) const {
    const double meters =
        Distance(topology_->position(a), topology_->position(b));
    const sim::SimTime delay =
        sim::SecondsF(meters / config_.propagation_speed);
    return delay > 0 ? delay : sim::Nanoseconds(1);
  }

  void StartTransmission(NodeId sender, const Packet& frame) {
    if (radio_.failed[sender] != 0) return;
    Packet packet = frame;
    packet.uid = next_uid_++;
    const sim::SimTime now = sim_->now();
    const sim::SimTime airtime = AirTime(packet.size_bytes());
    auto sender_counters = counters_->at(sender);
    sender_counters.frames_sent += 1;
    sender_counters.bytes_sent += packet.size_bytes();
    sender_counters.energy_tx_j +=
        config_.energy.TxCost(packet.size_bytes(), topology_->range());
    if (packet.type == PacketType::kAck) {
      sender_counters.ack_frames_sent += 1;
      sender_counters.ack_bytes_sent += packet.size_bytes();
    }
    for (auto& rx : active_rx_[sender]) rx.lost_to_tx = true;
    radio_.tx_until[sender] = std::max(radio_.tx_until[sender], now + airtime);

    auto shared = std::make_shared<const Packet>(std::move(packet));
    for (NodeId receiver : topology_->neighbors(sender)) {
      LinkFault fault;
      if (link_fault_) fault = link_fault_(sender, receiver, *shared);
      if (fault.drop) {
        counters_->at(receiver).injected_drops += 1;
        continue;
      }
      const sim::SimTime prop =
          PropagationDelay(sender, receiver) + fault.extra_delay;
      const uint64_t uid = shared->uid;
      sim_->At(now + prop, [this, receiver, uid, shared] {
        BeginReception(receiver, uid, shared);
      });
      sim_->At(now + prop + airtime,
               [this, receiver, uid] { EndReception(receiver, uid); });
      if (fault.duplicate) {
        counters_->at(receiver).injected_dup += 1;
        sim_->At(now + prop + airtime, [this, receiver, uid, shared] {
          BeginReception(receiver, uid, shared);
        });
        sim_->At(now + prop + 2 * airtime,
                 [this, receiver, uid] { EndReception(receiver, uid); });
      }
    }
  }

  bool IsBusy(NodeId id) const {
    if (radio_.tx_until[id] > sim_->now()) return true;
    return !active_rx_[id].empty();
  }

  // One finished reception, for tests that check what a script covers.
  struct Ended {
    NodeId receiver;
    uint64_t uid;  // Send order.
    size_t bytes;
    sim::SimTime begin;
    sim::SimTime end;
    bool addressed;  // Unicast to the receiver, or broadcast.
  };
  // Every reception in the order it ended.
  const std::vector<Ended>& ended() const { return ended_; }

 private:
  struct ActiveReception {
    uint64_t uid;
    std::shared_ptr<const Packet> packet;
    sim::SimTime begin = 0;
    bool collided = false;
    bool lost_to_tx = false;
    bool dead_rx = false;
  };

  void BeginReception(NodeId receiver, uint64_t uid,
                      std::shared_ptr<const Packet> packet) {
    auto& actives = active_rx_[receiver];
    ActiveReception rx{uid, std::move(packet), sim_->now()};
    if (radio_.tx_until[receiver] > sim_->now()) rx.lost_to_tx = true;
    if (radio_.failed[receiver] != 0) rx.dead_rx = true;
    if (!actives.empty()) {
      rx.collided = true;
      for (auto& other : actives) other.collided = true;
    }
    actives.push_back(std::move(rx));
  }

  void EndReception(NodeId receiver, uint64_t uid) {
    auto& actives = active_rx_[receiver];
    auto it = std::find_if(actives.begin(), actives.end(),
                           [uid](const ActiveReception& rx) {
                             return rx.uid == uid;
                           });
    IPDA_CHECK(it != actives.end());
    ActiveReception rx = std::move(*it);
    actives.erase(it);
    const Packet& frame = *rx.packet;
    ended_.push_back(Ended{receiver, uid, frame.size_bytes(), rx.begin,
                           sim_->now(),
                           frame.dst == receiver || frame.IsBroadcast()});
    auto rc = counters_->at(receiver);
    rc.energy_rx_j += config_.energy.RxCost(rx.packet->size_bytes());
    if (rx.lost_to_tx) {
      rc.frames_missed_tx += 1;
      return;
    }
    if (rx.collided) {
      rc.frames_collided += 1;
      return;
    }
    if (rx.dead_rx || radio_.failed[receiver] != 0) return;
    if (overhear_) overhear_(OverhearEvent{receiver, *rx.packet});
    if (rx.packet->dst == receiver || rx.packet->IsBroadcast()) {
      rc.frames_delivered += 1;
      rc.bytes_delivered += rx.packet->size_bytes();
      if (delivery_[receiver]) delivery_[receiver](*rx.packet);
    }
  }

  sim::Simulator* sim_;
  const Topology* topology_;
  PhyConfig config_;
  CounterBoard* counters_;
  uint64_t next_uid_ = 1;
  std::vector<Channel::DeliveryHandler> delivery_;
  Channel::OverhearHandler overhear_;
  Channel::LinkFaultHook link_fault_;
  std::vector<std::vector<ActiveReception>> active_rx_;
  std::vector<Ended> ended_;
  RadioBoard radio_;
};

}  // namespace ipda::net

#endif  // IPDA_TESTS_REFERENCE_CHANNEL_H_
