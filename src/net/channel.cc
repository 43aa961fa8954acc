#include "net/channel.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "util/check.h"

namespace ipda::net {

Channel::Channel(sim::Simulator* sim, const Topology* topology,
                 PhyConfig config, CounterBoard* counters)
    : sim_(sim),
      topology_(topology),
      config_(config),
      counters_(counters),
      radio_(topology != nullptr ? topology->node_count() : 0) {
  IPDA_CHECK(sim != nullptr);
  IPDA_CHECK(topology != nullptr);
  IPDA_CHECK(counters != nullptr);
  IPDA_CHECK_GT(config_.data_rate_bps, 0.0);
  // A zero speed would make every delay infinite (and its integer
  // conversion undefined).
  IPDA_CHECK_GT(config_.propagation_speed, 0.0);
  const size_t n = topology_->node_count();
  delivery_.resize(n);
  receptions_.resize(n);
  sim_->scheduler().SetUnqueuedEvents(this);
}

Channel::~Channel() { sim_->scheduler().SetUnqueuedEvents(nullptr); }

void Channel::FailNode(NodeId id) {
  IPDA_CHECK_LT(id, radio_.node_count());
  radio_.failed[id] = 1;
  // Anything the radio is mid-receiving dies with it, even if the node
  // recovers before the frame ends; what has yet to arrive begins on a
  // dead radio unless the node recovers first.
  const sim::EventKey now = position();
  for (Reception& rx : receptions_[id]) {
    if (rx.begin < now) {
      rx.dead_rx = true;
    } else {
      rx.failed_at_begin = true;
    }
  }
}

void Channel::RecoverNode(NodeId id) {
  IPDA_CHECK_LT(id, radio_.node_count());
  if (radio_.failed[id] == 0) return;
  radio_.failed[id] = 0;
  counters_->at(id).recoveries += 1;
  const sim::EventKey now = position();
  for (Reception& rx : receptions_[id]) {
    if (now < rx.begin) rx.failed_at_begin = false;
  }
}

void Channel::SetLinkFaultHook(LinkFaultHook hook) {
  link_fault_ = std::move(hook);
}

void Channel::SetDeliveryHandler(NodeId id, DeliveryHandler handler) {
  IPDA_CHECK_LT(id, delivery_.size());
  delivery_[id] = std::move(handler);
}

void Channel::SetOverhearHandler(OverhearHandler handler) {
  overhear_ = std::move(handler);
}

sim::SimTime Channel::AirTime(size_t bytes) const {
  const double seconds =
      static_cast<double>(bytes) * 8.0 / config_.data_rate_bps;
  return sim::SecondsF(seconds);
}

sim::SimTime Channel::PropagationDelay(NodeId a, NodeId b) const {
  const double meters = Distance(topology_->position(a),
                                 topology_->position(b));
  const sim::SimTime delay = sim::SecondsF(meters /
                                           config_.propagation_speed);
  // Never zero: reception must strictly follow the transmit decision.
  return delay > 0 ? delay : sim::Nanoseconds(1);
}

void Channel::StartTransmission(NodeId sender, const Packet& packet) {
  IPDA_CHECK_LT(sender, topology_->node_count());
  if (radio_.failed[sender] != 0) return;  // Dead radio: nothing leaves the node.
  const sim::SimTime now = sim_->now();
  const size_t bytes = packet.size_bytes();
  const sim::SimTime airtime = AirTime(bytes);

  auto sender_counters = counters_->at(sender);
  sender_counters.frames_sent += 1;
  sender_counters.bytes_sent += bytes;
  sender_counters.energy_tx_j +=
      config_.energy.TxCost(bytes, topology_->range());
  if (packet.type == PacketType::kAck) {
    sender_counters.ack_frames_sent += 1;
    sender_counters.ack_bytes_sent += bytes;
  }

  // Half duplex: anything this node is receiving is now lost, and so is
  // anything that begins before its transmission ends.
  radio_.tx_until[sender] = std::max(radio_.tx_until[sender], now + airtime);
  const sim::EventKey here = position();
  Settle(sender, here);
  for (Reception& rx : receptions_[sender]) {
    if (rx.begin < here || rx.begin.at < radio_.tx_until[sender]) {
      rx.lost_to_tx = true;
    }
  }

  // The stored copy is what receivers read; StartTransmission holds one
  // reference to it until the fan-out is done.
  const uint32_t frame = StoreFrame(packet);
  Packet& sent = frames_[frame].packet;
  sent.uid = next_uid_++;
  IPDA_CHECK_LE(bytes, static_cast<size_t>(UINT32_MAX));
  const uint32_t length = static_cast<uint32_t>(bytes);
  for (NodeId receiver : topology_->neighbors(sender)) {
    LinkFault fault;
    if (link_fault_) fault = link_fault_(sender, receiver, sent);
    if (fault.drop) {
      counters_->at(receiver).injected_drops += 1;
      continue;
    }
    IPDA_CHECK_GE(fault.extra_delay, 0);
    const sim::SimTime begin =
        now + PropagationDelay(sender, receiver) + fault.extra_delay;
    // Code runs at the end only where the frame can be delivered or
    // overheard.
    const bool end_event =
        overhear_ || sent.dst == receiver || sent.IsBroadcast();
    const uint32_t handle = end_event ? frame : kNoFrame;
    AddReception(receiver, begin, airtime, handle, length);
    if (fault.duplicate) {
      // A stale second copy abuts the first (end == start, so the copies
      // do not collide with each other). MAC-level dedup decides its fate.
      counters_->at(receiver).injected_dup += 1;
      AddReception(receiver, begin + airtime, airtime, handle, length);
    }
  }
  std::vector<End>& ends = frames_[frame].ends;
  if (!ends.empty()) {
    std::sort(ends.begin(), ends.end(),
              [](const End& a, const End& b) { return a.key < b.key; });
    in_flight_.push_back(InFlight{ends.front().key, frame});
  }
  ReleaseFrame(frame);
}

void Channel::AddReception(NodeId receiver, sim::SimTime begin_at,
                           sim::SimTime airtime, uint32_t frame,
                           uint32_t bytes) {
  sim::Scheduler& scheduler = sim_->scheduler();
  Reception rx;
  rx.begin = {begin_at, scheduler.ReserveSeq()};
  rx.end = {begin_at + airtime, scheduler.ReserveSeq()};
  if (frame != kNoFrame) {
    frames_[frame].ends.push_back(End{rx.end, receiver});
    frames_[frame].refs += 1;
  }
  rx.frame = frame;
  rx.bytes = bytes;
  rx.lost_to_tx = radio_.tx_until[receiver] > begin_at;
  rx.failed_at_begin = radio_.failed[receiver] != 0;

  Settle(receiver, position());
  std::vector<Reception>& list = receptions_[receiver];
  for (Reception& other : list) {
    if (other.begin < rx.end && rx.begin < other.end) {
      other.collided = true;
      rx.collided = true;
    }
  }
  auto at = list.end();
  while (at != list.begin() && rx.end < std::prev(at)->end) --at;
  list.insert(at, rx);
}

void Channel::Settle(NodeId receiver, sim::EventKey before) {
  std::vector<Reception>& list = receptions_[receiver];
  size_t done = 0;
  while (done < list.size() && list[done].end < before) {
    // A reception with an end event is settled by that event, which runs
    // before anything that could settle it here.
    IPDA_DCHECK(list[done].frame == kNoFrame);
    Bill(receiver, list[done]);
    ++done;
  }
  if (done > 0) list.erase(list.begin(), list.begin() + done);
}

bool Channel::Bill(NodeId receiver, const Reception& rx) {
  auto rc = counters_->at(receiver);
  // The radio listens for the whole frame whatever its fate.
  rc.energy_rx_j += config_.energy.RxCost(rx.bytes);
  if (rx.lost_to_tx) {
    rc.frames_missed_tx += 1;
    return false;
  }
  if (rx.collided) {
    rc.frames_collided += 1;
    return false;
  }
  return true;
}

void Channel::EndReception(NodeId receiver) {
  const sim::EventKey now = position();
  Settle(receiver, now);
  std::vector<Reception>& list = receptions_[receiver];
  IPDA_CHECK(!list.empty() && list.front().end == now);
  const Reception rx = list.front();
  list.erase(list.begin());
  // Crashed now, or at any point while the frame was arriving (dead_rx
  // survives a mid-frame recovery): the frame vanishes.
  const bool alive =
      !rx.dead_rx && !rx.failed_at_begin && radio_.failed[receiver] == 0;
  if (Bill(receiver, rx) && alive) {
    // The handlers may store frames; the deque keeps this one in place.
    const Packet& packet = frames_[rx.frame].packet;
    if (overhear_) overhear_(OverhearEvent{receiver, packet});
    if (packet.dst == receiver || packet.IsBroadcast()) {
      auto rc = counters_->at(receiver);
      rc.frames_delivered += 1;
      rc.bytes_delivered += packet.size_bytes();
      if (delivery_[receiver]) delivery_[receiver](packet);
    }
  }
  ReleaseFrame(rx.frame);
}

uint32_t Channel::StoreFrame(const Packet& packet) {
  uint32_t index;
  if (free_frame_ != kNoFrame) {
    index = free_frame_;
    free_frame_ = frames_[index].next_free;
  } else {
    IPDA_CHECK_LT(frames_.size(), static_cast<size_t>(kNoFrame));
    frames_.emplace_back();
    index = static_cast<uint32_t>(frames_.size() - 1);
  }
  Frame& frame = frames_[index];
  frame.packet = packet;  // Copy-assignment reuses the payload's buffer.
  frame.ends.clear();
  frame.next_end = 0;
  frame.refs = 1;
  ++frames_stored_;
  ++frames_live_;
  frames_high_water_ = std::max(frames_high_water_, frames_live_);
  return index;
}

void Channel::ReleaseFrame(uint32_t index) {
  Frame& frame = frames_[index];
  IPDA_CHECK_GT(frame.refs, 0u);
  if (--frame.refs > 0) return;
  frame.next_free = free_frame_;
  free_frame_ = index;
  --frames_live_;
}

bool Channel::IsBusy(NodeId id) const {
  IPDA_CHECK_LT(id, receptions_.size());
  if (radio_.tx_until[id] > sim_->now()) return true;
  const sim::EventKey now = position();
  for (const Reception& rx : receptions_[id]) {
    if (rx.begin < now && now < rx.end) return true;
  }
  return false;
}

sim::EventKey Channel::NextKey() {
  sim::EventKey next = sim::kNoEventKey;
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i].head < next) {
      next = in_flight_[i].head;
      next_in_flight_ = i;
    }
  }
  return next;
}

void Channel::RunNext() {
  InFlight& entry = in_flight_[next_in_flight_];
  Frame& frame = frames_[entry.frame];
  const NodeId receiver = frame.ends[frame.next_end].receiver;
  if (++frame.next_end < frame.ends.size()) {
    entry.head = frame.ends[frame.next_end].key;
  } else {
    entry = in_flight_.back();
    in_flight_.pop_back();
  }
  // May send frames, which join in_flight_.
  EndReception(receiver);
}

sim::EventKey Channel::ApplyUntil(sim::SimTime deadline) {
  // Every end event due by `deadline` has run, so what ends by then runs
  // no code. Runs once per RunUntil: a pass over all receivers is cheap.
  const sim::EventKey horizon{deadline, UINT64_MAX};
  sim::EventKey last;
  for (NodeId receiver = 0; receiver < receptions_.size(); ++receiver) {
    for (const Reception& rx : receptions_[receiver]) {
      const sim::EventKey& edge = rx.end < horizon ? rx.end : rx.begin;
      if (edge < horizon) last = std::max(last, edge);
    }
    Settle(receiver, horizon);
  }
  return last;
}

void Channel::CollectMetrics(obs::Registry& registry) const {
  registry.GetCounter("pool.arena_allocs")->Set(frames_stored_);
  registry.GetGauge("pool.arena_high_water")
      ->Set(static_cast<double>(frames_high_water_));
}

}  // namespace ipda::net
