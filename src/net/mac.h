// CSMA/CA medium access with 802.11-style link-layer ARQ.
//
// Outgoing frames queue FIFO. Before each transmission the MAC waits a
// uniform random backoff, then carrier-senses: a clear channel transmits,
// a busy one re-arms with a doubled (capped) window; `max_attempts` busy
// senses drop the frame. Unicast frames are acknowledged: the receiver
// returns an ACK after SIFS, the sender retransmits on ACK timeout up to
// `max_retries` times, and receivers deduplicate retransmissions by
// per-sender sequence number. Broadcasts are fire-and-forget — which is
// why HELLO floods stay lossy while slices and partials almost always get
// through, matching the ns-2/802.11 stack the paper evaluated on.

#ifndef IPDA_NET_MAC_H_
#define IPDA_NET_MAC_H_

#include <deque>
#include <functional>
#include <vector>

#include "net/channel.h"
#include "net/counters.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace ipda::net {

struct MacConfig {
  sim::SimTime backoff_min = sim::Microseconds(100);
  sim::SimTime initial_window = sim::Milliseconds(1);  // First-try spread.
  sim::SimTime backoff_max = sim::Milliseconds(8);     // Window cap.
  int max_attempts = 8;        // Busy carrier senses before dropping.
  double window_growth = 2.0;  // Busy sense multiplies the window by this.
  bool arq = true;             // Acknowledge + retransmit unicast frames.
  int max_retries = 5;         // Retransmissions per unicast frame.
  sim::SimTime ack_timeout = sim::Microseconds(400);
  sim::SimTime sifs = sim::Microseconds(10);
};

// Receive-side ARQ dedup: the highest sequence number delivered from each
// sender, in one flat table sorted by sender id. A receiver hears unicasts
// from a few of its neighbors, so a binary search over a small contiguous
// table replaces a hash map's node and bucket allocations.
class DuplicateFilter {
 public:
  // Room for `expected_senders` is reserved on the first Accept, so a
  // node that never receives a unicast holds no table. More senders than
  // that still fit.
  explicit DuplicateFilter(size_t expected_senders = 0)
      : expected_senders_(expected_senders) {}

  // True if `seq` is new from `src`, and records it; false for a
  // retransmission of a frame already delivered (seq <= the last one).
  bool Accept(NodeId src, uint64_t seq);

  size_t senders() const { return last_.size(); }

 private:
  struct Entry {
    NodeId src;
    uint64_t seq;
  };
  size_t expected_senders_;
  std::vector<Entry> last_;  // Sorted by src.
};

class CsmaMac {
 public:
  using ReceiveHandler = std::function<void(const Packet&)>;
  // Invoked with the abandoned frame when the MAC gives up on it: either
  // `max_attempts` busy carrier senses, or a unicast that exhausted its
  // ARQ retries without an ACK. The latter is the liveness signal upper
  // layers use to detect a dead peer. The handler may call Send() to
  // re-route the payload; the failed frame is already off the queue.
  using SendFailureHandler = std::function<void(const Packet&)>;

  CsmaMac(sim::Simulator* sim, Channel* channel, CounterBoard* counters,
          NodeId id, util::Rng rng, MacConfig config);

  CsmaMac(const CsmaMac&) = delete;
  CsmaMac& operator=(const CsmaMac&) = delete;

  // Queues a frame for transmission. src is forced to this node's id.
  void Send(Packet packet);

  // Application-layer sink for intact frames addressed to this node
  // (deduplicated; ACKs are consumed internally).
  void SetReceiveHandler(ReceiveHandler handler);

  // Optional notification for frames the MAC dropped (see above).
  void SetSendFailureHandler(SendFailureHandler handler);

  NodeId id() const { return id_; }
  size_t queue_depth() const { return queue_.size(); }
  bool idle() const { return !armed_ && !transmitting_ && queue_.empty(); }

 private:
  void OnDelivery(const Packet& packet);
  void MaybeArm();
  void Attempt();
  void TransmitHead();
  void OnTransmitComplete(uint64_t seq);
  void OnAckTimeout(uint64_t seq);
  void ResolveHead(bool delivered_unknown);
  void DropHead();
  void SendAck(NodeId to, uint64_t seq);

  // Dedup table room reserved on the first unicast. A receiver hears
  // unicasts from a few neighbors (its slice senders and tree children in
  // an iPDA round), not its whole degree; reserving the degree would add
  // ~0.25 MiB of never-used table to a 600-node round.
  static constexpr size_t kDedupReserve = 8;

  sim::Simulator* sim_;
  Channel* channel_;
  CounterBoard* counters_;
  NodeId id_;
  util::Rng rng_;
  MacConfig config_;
  ReceiveHandler receive_handler_;
  SendFailureHandler send_failure_handler_;
  std::deque<Packet> queue_;  // Head is the in-flight frame.
  uint64_t next_seq_ = 1;
  bool armed_ = false;         // Backoff timer pending.
  bool transmitting_ = false;  // Frame currently on the air.
  bool awaiting_ack_ = false;
  sim::EventId ack_timer_ = sim::kInvalidEventId;
  int attempts_ = 0;  // Busy senses for the current transmission attempt.
  int retries_ = 0;   // Retransmissions of the head frame.
  sim::SimTime window_;
  DuplicateFilter delivered_;
};

}  // namespace ipda::net

#endif  // IPDA_NET_MAC_H_
