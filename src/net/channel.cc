#include "net/channel.h"

#include <algorithm>
#include <iterator>
#include <memory>
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
  delivery_.resize(topology_->node_count());
  sim_->scheduler().SetUnqueuedEvents(this);
}

Channel::~Channel() { sim_->scheduler().SetUnqueuedEvents(nullptr); }

std::pair<size_t, size_t> Channel::Frame::RangeOf(NodeId node) const {
  const auto below = [](const Reception& r, NodeId id) {
    return r.receiver < id;
  };
  size_t first = static_cast<size_t>(
      std::lower_bound(rx.begin(), rx.end(), node, below) - rx.begin());
  size_t last = first;
  while (last < rx.size() && rx[last].receiver == node) ++last;
  return {first, last};
}

void Channel::FailNode(NodeId id) {
  IPDA_CHECK_LT(id, radio_.node_count());
  radio_.failed[id] = 1;
  // Anything the radio is mid-receiving dies with it, even if the node
  // recovers before the frame ends; what has yet to arrive begins on a
  // dead radio unless the node recovers first.
  const sim::EventKey now = position();
  for (uint32_t f : air_) {
    Frame& frame = FrameAt(f);
    if (!MayReach(frame, id)) continue;
    const auto [first, last] = frame.RangeOf(id);
    for (size_t i = first; i < last; ++i) {
      frame.rx[i].marks |= frame.Begin(i) < now ? kDeadRx : kFailedAtBegin;
    }
  }
}

void Channel::RecoverNode(NodeId id) {
  IPDA_CHECK_LT(id, radio_.node_count());
  if (radio_.failed[id] == 0) return;
  radio_.failed[id] = 0;
  counters_->at(id).recoveries += 1;
  const sim::EventKey now = position();
  for (uint32_t f : air_) {
    Frame& frame = FrameAt(f);
    if (!MayReach(frame, id)) continue;
    const auto [first, last] = frame.RangeOf(id);
    for (size_t i = first; i < last; ++i) {
      if (now < frame.Begin(i)) {
        frame.rx[i].marks &= ~uint32_t{kFailedAtBegin};
      }
    }
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
  return DelayOver(Distance(topology_->position(a), topology_->position(b)));
}

sim::SimTime Channel::DelayOver(double meters) const {
  const sim::SimTime delay = sim::SecondsF(meters /
                                           config_.propagation_speed);
  // Never zero: reception must strictly follow the transmit decision.
  return delay > 0 ? delay : sim::Nanoseconds(1);
}

// Receivers lie within `reach` up to rounding; the slack absorbs it.
constexpr double kReachSlack = 1.0 + 1e-9;

bool Channel::Near(const Frame& a, const Frame& b) {
  if (a.moves != b.moves) return true;
  const double reach = (a.reach + b.reach) * kReachSlack;
  return DistanceSquared(a.from, b.from) <= reach * reach;
}

bool Channel::MayReach(const Frame& frame, NodeId node) const {
  if (frame.moves != topology_->moves()) return true;
  const double reach = frame.reach * kReachSlack;
  return DistanceSquared(frame.from, topology_->position(node)) <=
         reach * reach;
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
  BillUntil(here);
  for (uint32_t f : air_) {
    Frame& frame = FrameAt(f);
    if (!MayReach(frame, sender)) continue;
    const auto [first, last] = frame.RangeOf(sender);
    for (size_t i = first; i < last; ++i) {
      if (here < frame.EndOf(i) &&
          (frame.Begin(i) < here ||
           frame.rx[i].at < radio_.tx_until[sender])) {
        frame.rx[i].marks |= kLostToTx;
      }
    }
  }

  // The stored copy is what receivers read; StartTransmission holds one
  // reference to it until the fan-out is done.
  const uint32_t index = StoreFrame(packet);
  Frame& frame = FrameAt(index);
  frame.packet.uid = next_uid_++;
  frame.rx_cost = config_.energy.RxCost(bytes);
  frame.airtime = airtime;
  std::vector<Reception>& rx = frame.rx;
  std::vector<End>& ends = frame.ends;
  // Code runs at the end only where the frame can be delivered or
  // overheard.
  const NodeId dst = frame.packet.dst;
  const bool end_everywhere = overhear_ || dst == kBroadcastId;
  const NeighborSpan receivers = topology_->neighbors(sender);
  const FanOut fan = FanOutOf(sender);
  // A frame with an end at every reception and a table lists its ends
  // after the fan-out, in the table's order unless a link fault acted.
  // Any other lists them as they are added (a unicast's duplicate copy
  // begins later, so its destination's come in key order).
  const bool list_now = fan.delays == nullptr || !end_everywhere;
  // Appends a reception and reserves its begin and end keys.
  sim::Scheduler& scheduler = sim_->scheduler();
  auto add = [&](NodeId receiver, sim::SimTime begin) {
    const uint64_t seq = scheduler.ReserveSeq();
    scheduler.ReserveSeq();  // The end key's.
    uint32_t marks = 0;
    if (end_everywhere || receiver == dst) {
      marks = kEndEvent;
      if (list_now) {
        ends.push_back(End{{begin + airtime, seq + 1},
                           static_cast<uint32_t>(rx.size())});
      }
    }
    if (radio_.tx_until[receiver] > begin) marks |= kLostToTx;
    if (radio_.failed[receiver] != 0) marks |= kFailedAtBegin;
    rx.push_back(Reception{begin, seq, receiver, marks});
  };
  const Point2D from = topology_->position(sender);
  const bool faults = static_cast<bool>(link_fault_);
  // The table's reach covers every neighbor, so it bounds the receivers
  // of a frame that lost some to link faults too.
  double reach = fan.reach;
  bool faulted = false;  // A link fault dropped, copied or delayed one.
  for (size_t k = 0; k < receivers.size(); ++k) {
    const NodeId receiver = receivers[k];
    LinkFault fault;
    if (faults) {
      fault = link_fault_(sender, receiver, frame.packet);
      faulted |= fault.drop || fault.duplicate || fault.extra_delay != 0;
    }
    if (fault.drop) {
      counters_->at(receiver).injected_drops += 1;
      continue;
    }
    IPDA_CHECK_GE(fault.extra_delay, 0);
    sim::SimTime delay;
    if (fan.delays != nullptr) {
      delay = fan.delays[k];
    } else {
      const double meters = Distance(from, topology_->position(receiver));
      reach = std::max(reach, meters);
      delay = DelayOver(meters);
    }
    const sim::SimTime begin = now + delay + fault.extra_delay;
    add(receiver, begin);
    if (fault.duplicate) {
      // A stale second copy abuts the first (end == start, so the copies
      // do not collide with each other). MAC-level dedup decides its fate.
      counters_->at(receiver).injected_dup += 1;
      add(receiver, begin + airtime);
    }
  }
  if (rx.empty()) {
    ReleaseFrame(index);
    FreeFrame(index);
    return;
  }
  const uint32_t size = static_cast<uint32_t>(rx.size());
  // Unless a link fault acted, keys ascend by (delay, fan-out index): the
  // table's order.
  const bool ordered = fan.delays != nullptr && !faulted;
  if (ordered) {
    frame.first = fan.order[0];
    frame.last = fan.order[size - 1];
  } else {
    // Seqs ascend in fan-out order, so the earliest key is the first
    // smallest begin time and the latest the last largest.
    uint32_t first = 0;
    uint32_t last = 0;
    for (uint32_t k = 1; k < size; ++k) {
      if (rx[k].at < rx[first].at) first = k;
      if (!(rx[k].at < rx[last].at)) last = k;
    }
    frame.first = first;
    frame.last = last;
  }
  if (!list_now) {
    ends.resize(size);
    for (uint32_t j = 0; j < size; ++j) {
      const uint32_t k = ordered ? fan.order[j] : j;
      ends[j] = End{frame.EndOf(k), k};
    }
  }
  if (end_everywhere && !ordered) {
    std::sort(ends.begin(), ends.end(),
              [](const End& a, const End& b) { return a.key < b.key; });
  }
  frame.refs += static_cast<uint32_t>(ends.size());
  frame.from = from;
  frame.reach = reach;
  frame.moves = topology_->moves();
  for (uint32_t f : air_) {
    if (Near(FrameAt(f), frame)) Meet(f, index);
  }
  air_.push_back(index);
  bill_due_ = std::min(bill_due_, frame.EndOf(frame.last));
  if (!ends.empty()) in_flight_.push_back(InFlight{ends.front().key, index});
  ReleaseFrame(index);
}

Channel::FanOut Channel::FanOutOf(NodeId sender) {
  if (topology_->mutations() != 0) return {};
  if (fan_reach_.empty()) {
    fan_reach_.assign(topology_->node_count(), kUnbuilt);
    fan_delays_.resize(topology_->edge_slots());
    fan_order_.resize(topology_->edge_slots());
  }
  double& reach = fan_reach_[sender];
  if (reach == kUnbuilt) reach = BuildFanOut(sender);
  if (reach == kNoTable) return {};
  const uint32_t slot = topology_->edge_slot(sender);
  return {fan_delays_.data() + slot, fan_order_.data() + slot, reach};
}

double Channel::BuildFanOut(NodeId sender) {
  const NeighborSpan receivers = topology_->neighbors(sender);
  if (receivers.size() > size_t{UINT8_MAX} + 1) return kNoTable;
  const uint32_t slot = topology_->edge_slot(sender);
  uint16_t* delays = fan_delays_.data() + slot;
  uint8_t* order = fan_order_.data() + slot;
  const Point2D from = topology_->position(sender);
  double reach = 0.0;
  // Keys (delay << 8) | k are distinct and ascend by (delay, k), so a
  // key's rank is the count of smaller keys: a branch-free loop that
  // vectorizes, unlike a comparison sort of ~27 keys.
  const size_t n = receivers.size();
  uint32_t keys[UINT8_MAX + 1] = {};
  for (size_t k = 0; k < n; ++k) {
    const double meters = Distance(from, topology_->position(receivers[k]));
    reach = std::max(reach, meters);
    const sim::SimTime delay = DelayOver(meters);
    if (delay > sim::SimTime{UINT16_MAX}) return kNoTable;
    delays[k] = static_cast<uint16_t>(delay);
    keys[k] = static_cast<uint32_t>(delay) << 8 | static_cast<uint32_t>(k);
  }
  for (size_t k = 0; k < n; ++k) {
    uint32_t rank = 0;
    for (size_t j = 0; j < n; ++j) rank += keys[j] < keys[k];
    order[rank] = static_cast<uint8_t>(k);
  }
  return reach;
}

void Channel::Meet(uint32_t earlier, uint32_t later) {
  Frame& a = FrameAt(earlier);
  Frame& b = FrameAt(later);
  // Receptions of the two can overlap only within both frames' spans.
  if (!(a.Begin(a.first) < b.EndOf(b.last) &&
        b.Begin(b.first) < a.EndOf(a.last))) {
    return;
  }
  // Energy order is at stake only between different costs whose end
  // windows interleave: otherwise every reception of one frame ends
  // before every reception of the other, and billing each frame after its
  // last end adds in end-key order.
  const bool order_at_stake = a.rx_cost != b.rx_cost &&
                              a.EndOf(a.first) < b.EndOf(b.last) &&
                              b.EndOf(b.first) < a.EndOf(a.last);
  // Both lists ascend by receiver: a merge finds the common ones. The
  // cursors advance without a branch; a match is the rare case.
  const size_t a_size = a.rx.size();
  const size_t b_size = b.rx.size();
  size_t i = 0;
  size_t j = 0;
  while (i < a_size && j < b_size) {
    const NodeId x = a.rx[i].receiver;
    const NodeId y = b.rx[j].receiver;
    if (x != y) {
      i += x < y;
      j += y < x;
      continue;
    }
    size_t i_end = i + 1;
    while (i_end < a_size && a.rx[i_end].receiver == x) ++i_end;
    size_t j_end = j + 1;
    while (j_end < b_size && b.rx[j_end].receiver == x) ++j_end;
    for (size_t u = i; u < i_end; ++u) {
      for (size_t v = j; v < j_end; ++v) {
        if (a.Begin(u) < b.EndOf(v) && b.Begin(v) < a.EndOf(u)) {
          a.rx[u].marks |= kCollided;
          b.rx[v].marks |= kCollided;
        }
      }
    }
    if (order_at_stake) {
      BillAtOwnEnd(earlier, i, i_end);
      BillAtOwnEnd(later, j, j_end);
    }
    i = i_end;
    j = j_end;
  }
}

void Channel::BillAtOwnEnd(uint32_t index, size_t first, size_t last) {
  Frame& frame = FrameAt(index);
  for (size_t i = first; i < last; ++i) {
    uint32_t& marks = frame.rx[i].marks;
    if (marks & (kEndEvent | kOwnEnd | kBilled)) continue;
    marks |= kOwnEnd;
    // The key may already have passed: then every reception billed at
    // this receiver since cost the same, and this one bills first thing
    // at the next BillUntil, ahead of anything later.
    const OwnEnd entry{frame.EndOf(i), index, static_cast<uint32_t>(i)};
    auto at = own_ends_.end();
    while (at != own_ends_.begin() && entry.key < std::prev(at)->key) --at;
    own_ends_.insert(at, entry);
    bill_due_ = std::min(bill_due_, entry.key);
  }
}

void Channel::BillDue(sim::EventKey before) {
  while (bill_due_ < before) {
    size_t next = air_.size();
    sim::EventKey retire_at = sim::kNoEventKey;
    for (size_t k = 0; k < air_.size(); ++k) {
      const Frame& frame = FrameAt(air_[k]);
      const sim::EventKey last_end = frame.EndOf(frame.last);
      if (last_end < retire_at) {
        retire_at = last_end;
        next = k;
      }
    }
    // A frame's own-end receptions end no later than the frame does, and
    // bill first.
    if (!own_ends_.empty() && !(retire_at < own_ends_.front().key)) {
      const OwnEnd entry = own_ends_.front();
      own_ends_.erase(own_ends_.begin());
      const Frame& frame = FrameAt(entry.frame);
      const Reception& rx = frame.rx[entry.rx];
      Bill(rx.receiver, frame.rx_cost, rx.marks);
    } else {
      Retire(next);
    }
    UpdateBillDue();
  }
}

void Channel::Retire(size_t air_index) {
  const uint32_t index = air_[air_index];
  const Frame& frame = FrameAt(index);
  // Every end event has run, so only the packet's slot is left to free.
  IPDA_DCHECK(frame.refs == 0);
  if (frame.ends.size() < frame.rx.size()) {  // Some ran no code.
    const double cost = frame.rx_cost;  // Not reread after each bill.
    for (const Reception& rx : frame.rx) {
      if (rx.marks & (kEndEvent | kOwnEnd | kBilled)) continue;
      Bill(rx.receiver, cost, rx.marks);
    }
  }
  air_[air_index] = air_.back();
  air_.pop_back();
  FreeFrame(index);
}

void Channel::UpdateBillDue() {
  bill_due_ = own_ends_.empty() ? sim::kNoEventKey : own_ends_.front().key;
  for (uint32_t f : air_) {
    const Frame& frame = FrameAt(f);
    bill_due_ = std::min(bill_due_, frame.EndOf(frame.last));
  }
}

bool Channel::Bill(NodeId receiver, double cost, uint32_t marks) {
  auto rc = counters_->at(receiver);
  // The radio listens for the whole frame whatever its fate.
  rc.energy_rx_j += cost;
  if (marks & kLostToTx) {
    rc.frames_missed_tx += 1;
    return false;
  }
  if (marks & kCollided) {
    rc.frames_collided += 1;
    return false;
  }
  return true;
}

void Channel::EndReception(uint32_t index, uint32_t rx_index) {
  const Frame& frame = FrameAt(index);
  IPDA_DCHECK(frame.EndOf(rx_index) == position());
  BillUntil(position());
  const Reception rx = frame.rx[rx_index];
  // Crashed now, or at any point while the frame was arriving (dead_rx
  // survives a mid-frame recovery): the frame vanishes.
  const bool alive = (rx.marks & (kDeadRx | kFailedAtBegin)) == 0 &&
                     radio_.failed[rx.receiver] == 0;
  if (Bill(rx.receiver, frame.rx_cost, rx.marks) && alive) {
    // The handlers may store frames; the table's blocks keep this one in
    // place, and it stays on the air at least until its last end has
    // passed.
    const Packet& packet = frame.packet;
    const NodeId receiver = rx.receiver;
    if (overhear_) overhear_(OverhearEvent{receiver, packet});
    if (packet.dst == receiver || packet.IsBroadcast()) {
      auto rc = counters_->at(receiver);
      rc.frames_delivered += 1;
      rc.bytes_delivered += packet.size_bytes();
      if (delivery_[receiver]) delivery_[receiver](packet);
    }
  }
  ReleaseFrame(index);
}

uint32_t Channel::StoreFrame(const Packet& packet) {
  uint32_t index;
  if (free_frame_ != kNoFrame) {
    index = free_frame_;
    free_frame_ = FrameAt(index).next_free;
  } else {
    IPDA_CHECK_LT(frame_slots_, kNoFrame);
    if (frame_slots_ == frame_blocks_.size() * kFrameBlock) {
      frame_blocks_.push_back(std::make_unique<Frame[]>(kFrameBlock));
    }
    index = frame_slots_++;
  }
  Frame& frame = FrameAt(index);
  frame.packet = packet;  // Copy-assignment reuses the payload's buffer.
  frame.rx.clear();
  frame.ends.clear();
  frame.next_end = 0;
  frame.refs = 1;
  ++frames_stored_;
  ++frames_live_;
  frames_high_water_ = std::max(frames_high_water_, frames_live_);
  return index;
}

void Channel::ReleaseFrame(uint32_t index) {
  Frame& frame = FrameAt(index);
  IPDA_CHECK_GT(frame.refs, 0u);
  if (--frame.refs == 0) --frames_live_;
}

void Channel::FreeFrame(uint32_t index) {
  FrameAt(index).next_free = free_frame_;
  free_frame_ = index;
}

bool Channel::IsBusy(NodeId id) const {
  IPDA_CHECK_LT(id, radio_.node_count());
  if (radio_.tx_until[id] > sim_->now()) return true;
  const sim::EventKey now = position();
  for (uint32_t f : air_) {
    const Frame& frame = FrameAt(f);
    if (!MayReach(frame, id)) continue;
    const auto [first, last] = frame.RangeOf(id);
    for (size_t i = first; i < last; ++i) {
      if (frame.Begin(i) < now && now < frame.EndOf(i)) return true;
    }
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
  const uint32_t index = entry.frame;
  Frame& frame = FrameAt(index);
  const uint32_t rx = frame.ends[frame.next_end].rx;
  if (++frame.next_end < frame.ends.size()) {
    entry.head = frame.ends[frame.next_end].key;
  } else {
    entry = in_flight_.back();
    in_flight_.pop_back();
  }
  // May send frames, which join in_flight_.
  EndReception(index, rx);
}

sim::EventKey Channel::ApplyUntil(sim::SimTime deadline) {
  // Every end event due by `deadline` has run, so what ends by then runs
  // no code. Runs once per RunUntil: a pass over the air table is cheap.
  const sim::EventKey horizon{deadline, UINT64_MAX};
  sim::EventKey last;
  for (uint32_t f : air_) {
    const Frame& frame = FrameAt(f);
    for (size_t i = 0; i < frame.rx.size(); ++i) {
      const sim::EventKey end = frame.EndOf(i);
      const sim::EventKey& edge = end < horizon ? end : frame.Begin(i);
      if (edge < horizon) last = std::max(last, edge);
    }
  }
  BillUntil(horizon);
  // What ended by the deadline in frames still on the air. Two such
  // receptions at one receiver whose costs differ are billed at their own
  // ends already (their frames' end windows overlap), so the order here
  // does not matter.
  for (uint32_t f : air_) {
    Frame& frame = FrameAt(f);
    for (size_t i = 0; i < frame.rx.size(); ++i) {
      Reception& rx = frame.rx[i];
      if ((rx.marks & (kEndEvent | kOwnEnd | kBilled)) == 0 &&
          frame.EndOf(i) < horizon) {
        Bill(rx.receiver, frame.rx_cost, rx.marks);
        rx.marks |= kBilled;
      }
    }
  }
  return last;
}

void Channel::CollectMetrics(obs::Registry& registry) const {
  registry.GetCounter("pool.arena_allocs")->Set(frames_stored_);
  registry.GetGauge("pool.arena_high_water")
      ->Set(static_cast<double>(frames_high_water_));
}

}  // namespace ipda::net
