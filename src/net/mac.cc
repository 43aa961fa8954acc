#include "net/mac.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace ipda::net {

bool DuplicateFilter::Accept(NodeId src, uint64_t seq) {
  const auto it = std::lower_bound(
      last_.begin(), last_.end(), src,
      [](const Entry& e, NodeId id) { return e.src < id; });
  if (it != last_.end() && it->src == src) {
    if (seq <= it->seq) return false;
    it->seq = seq;
    return true;
  }
  const auto at = it - last_.begin();
  if (last_.capacity() == 0) {
    last_.reserve(std::max<size_t>(expected_senders_, 1));
  }
  last_.insert(last_.begin() + at, Entry{src, seq});
  return true;
}

CsmaMac::CsmaMac(sim::Simulator* sim, Channel* channel,
                 CounterBoard* counters, NodeId id, util::Rng rng,
                 MacConfig config)
    : sim_(sim),
      channel_(channel),
      counters_(counters),
      id_(id),
      rng_(std::move(rng)),
      config_(config),
      window_(config.initial_window) {
  IPDA_CHECK(sim != nullptr);
  IPDA_CHECK(channel != nullptr);
  delivered_ = DuplicateFilter(
      std::min(channel_->topology().degree(id_), kDedupReserve));
  IPDA_CHECK_GT(config_.max_attempts, 0);
  IPDA_CHECK_GE(config_.max_retries, 0);
  IPDA_CHECK_GE(config_.backoff_max, config_.initial_window);
  channel_->SetDeliveryHandler(
      id_, [this](const Packet& packet) { OnDelivery(packet); });
}

void CsmaMac::SetReceiveHandler(ReceiveHandler handler) {
  receive_handler_ = std::move(handler);
}

void CsmaMac::SetSendFailureHandler(SendFailureHandler handler) {
  send_failure_handler_ = std::move(handler);
}

void CsmaMac::DropHead() {
  IPDA_CHECK(!queue_.empty());
  Packet dropped = std::move(queue_.front());
  queue_.pop_front();
  counters_->at(id_).mac_drops += 1;
  attempts_ = 0;
  retries_ = 0;
  window_ = config_.initial_window;
  // Notify with the MAC state already reset: the handler may Send() a
  // replacement frame, which queues behind anything still pending.
  if (send_failure_handler_) send_failure_handler_(dropped);
  MaybeArm();
}

void CsmaMac::Send(Packet packet) {
  packet.src = id_;
  packet.seq = next_seq_++;
  queue_.push_back(std::move(packet));
  MaybeArm();
}

void CsmaMac::OnDelivery(const Packet& packet) {
  if (packet.type == PacketType::kAck) {
    // ACKs are MAC-internal. Match the in-flight unicast by (peer, seq).
    if (awaiting_ack_ && !queue_.empty() && packet.src == queue_.front().dst &&
        packet.seq == queue_.front().seq) {
      awaiting_ack_ = false;
      if (ack_timer_ != sim::kInvalidEventId) {
        sim_->scheduler().Cancel(ack_timer_);
        ack_timer_ = sim::kInvalidEventId;
      }
      ResolveHead(/*delivered_unknown=*/false);
    }
    return;
  }

  if (!packet.IsBroadcast() && config_.arq) {
    // Always acknowledge — the previous ACK may have been lost.
    SendAck(packet.src, packet.seq);
    if (!delivered_.Accept(packet.src, packet.seq)) return;
  }
  if (receive_handler_) receive_handler_(packet);
}

void CsmaMac::SendAck(NodeId to, uint64_t seq) {
  Packet ack;
  ack.src = id_;
  ack.dst = to;
  ack.type = PacketType::kAck;
  ack.seq = seq;
  // ACKs skip contention: sent a SIFS after reception, like 802.11.
  sim_->After(config_.sifs, [this, ack] {
    channel_->StartTransmission(id_, ack);
  });
}

void CsmaMac::MaybeArm() {
  if (armed_ || transmitting_ || awaiting_ack_ || queue_.empty()) return;
  armed_ = true;
  const sim::SimTime lo = config_.backoff_min;
  const sim::SimTime hi = std::max(lo + window_, lo + 1);
  const sim::SimTime backoff =
      lo + static_cast<sim::SimTime>(
               rng_.UniformUint64(static_cast<uint64_t>(hi - lo + 1)));
  sim_->After(backoff, [this] { Attempt(); });
}

void CsmaMac::Attempt() {
  armed_ = false;
  if (queue_.empty()) return;  // Head resolved by a late ACK.
  if (!channel_->IsBusy(id_)) {
    TransmitHead();
    return;
  }
  ++attempts_;
  if (attempts_ >= config_.max_attempts) {
    DropHead();
    return;
  }
  window_ = std::min(
      static_cast<sim::SimTime>(static_cast<double>(window_) *
                                config_.window_growth),
      config_.backoff_max);
  MaybeArm();
}

void CsmaMac::TransmitHead() {
  IPDA_CHECK(!queue_.empty());
  const Packet& head = queue_.front();
  const uint64_t seq = head.seq;
  attempts_ = 0;
  transmitting_ = true;
  const sim::SimTime airtime = channel_->AirTime(head.size_bytes());
  channel_->StartTransmission(id_, head);  // Copies the frame.
  sim_->After(airtime, [this, seq] { OnTransmitComplete(seq); });
}

void CsmaMac::OnTransmitComplete(uint64_t seq) {
  transmitting_ = false;
  if (queue_.empty() || queue_.front().seq != seq) {
    // Head already resolved (ACK raced the completion callback).
    MaybeArm();
    return;
  }
  const Packet& head = queue_.front();
  if (head.IsBroadcast() || !config_.arq) {
    ResolveHead(/*delivered_unknown=*/true);
    return;
  }
  awaiting_ack_ = true;
  ack_timer_ = sim_->After(config_.ack_timeout,
                           [this, seq] { OnAckTimeout(seq); });
}

void CsmaMac::OnAckTimeout(uint64_t seq) {
  ack_timer_ = sim::kInvalidEventId;
  if (!awaiting_ack_ || queue_.empty() || queue_.front().seq != seq) return;
  awaiting_ack_ = false;
  ++retries_;
  if (retries_ > config_.max_retries) {
    DropHead();
    return;
  }
  counters_->at(id_).arq_retries += 1;
  // Contend again with a grown window.
  window_ = std::min(
      static_cast<sim::SimTime>(static_cast<double>(window_) *
                                config_.window_growth),
      config_.backoff_max);
  MaybeArm();
}

void CsmaMac::ResolveHead(bool delivered_unknown) {
  (void)delivered_unknown;
  IPDA_CHECK(!queue_.empty());
  queue_.pop_front();
  retries_ = 0;
  window_ = config_.initial_window;
  MaybeArm();
}

}  // namespace ipda::net
