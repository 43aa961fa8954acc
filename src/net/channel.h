// Shared wireless medium with receiver-side collision modeling.
//
// A transmission physically reaches every topology neighbor of the sender.
// At each receiver, two frames whose airtimes overlap corrupt each other
// (no capture effect), and a half-duplex radio loses frames that arrive
// while it is itself transmitting. Frames that abut exactly (end == start)
// do not collide. This is the loss source the paper calls "factor (c)".
//
// The air table (DESIGN.md §9). Each frame on the air keeps its
// receptions in fan-out order: the receivers it reached (ascending, a
// duplicate copy right after the first), each reception's begin and end
// keys, and its marks (collided, lost to the receiver's own
// transmission, dead, failed at begin). The keys take their sequence
// numbers from the scheduler exactly when the frame is sent, so a
// reception's edges sit among the queued events where a begin event and
// an end event would. Nothing is kept per receiver: collisions are found
// between frames when the later one is sent, by merging its receiver
// list with those of the few frames still on the air whose senders are
// near enough to share a receiver, and carrier sense, crashes and a
// sender's half-duplex losses look the node up in those frames. Only a
// reception that runs code at its end (the unicast destination, every
// neighbor of a broadcast, every neighbor while an overhear tap is
// installed) gets an end event, and it is never queued: the frame keeps
// its ends in one list sorted by key, and the channel, as the
// scheduler's UnqueuedEvents source, offers the smallest head among the
// frames in flight. The other receptions are billed (energy, collision
// and missed-while-transmitting counts) once the clock passes their
// frame's last end, or when RunUntil applies them at its deadline.
//
// The fan-out table (DESIGN.md §9). What a broadcast's fan-out needs
// besides the receivers' own state depends only on the sender: each
// edge's propagation delay, the farthest receiver, and the order of the
// receptions' keys. While the topology has never been mutated, the
// channel keeps these per sender, built on its first send, so a frame no
// link fault touched writes its end list already sorted.

#ifndef IPDA_NET_CHANNEL_H_
#define IPDA_NET_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "net/counters.h"
#include "net/energy.h"
#include "net/packet.h"
#include "net/radio_state.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ipda::net {

struct PhyConfig {
  double data_rate_bps = 1e6;        // Paper: 1 Mbps. Must be > 0.
  double propagation_speed = 3e8;    // m/s. Must be > 0.
  EnergyModel energy;                // Per-frame radio energy accounting.
};

// Observer invoked for every frame that reaches a receiver intact,
// regardless of addressing. This is the eavesdropping surface: attack
// models subscribe here, exactly like an adversary parked next to a node.
struct OverhearEvent {
  NodeId receiver;
  Packet packet;  // Note: ciphertext payload if the sender encrypted.
};

// Per-(sender, receiver, frame) fault decision, produced by an installed
// LinkFaultHook (see fault/fault_injector.h). The channel applies it when
// fanning a transmission out to each topology neighbor.
struct LinkFault {
  bool drop = false;             // Frame never reaches this receiver.
  bool duplicate = false;        // Receiver hears a stale second copy.
  sim::SimTime extra_delay = 0;  // Added one-way latency on this link.
};

class Channel final : private sim::UnqueuedEvents {
 public:
  using DeliveryHandler = std::function<void(const Packet&)>;
  using OverhearHandler = std::function<void(const OverhearEvent&)>;
  using LinkFaultHook =
      std::function<LinkFault(NodeId sender, NodeId receiver,
                              const Packet& packet)>;

  Channel(sim::Simulator* sim, const Topology* topology, PhyConfig config,
          CounterBoard* counters);

  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // MAC layers register here to receive intact, addressed frames.
  void SetDeliveryHandler(NodeId id, DeliveryHandler handler);

  // Optional promiscuous tap (attack models, tracing). It hears the
  // frames that both start and end while it is installed.
  void SetOverhearHandler(OverhearHandler handler);

  // Begins transmitting a copy of `packet` from `sender` now. The caller
  // (MAC) is responsible for carrier-sensing first; the channel faithfully
  // models whatever overlap results.
  void StartTransmission(NodeId sender, const Packet& packet);

  // Carrier sense at `id`: any reception in progress, or own transmission.
  bool IsBusy(NodeId id) const;

  // Crash-fails a node: from now on it neither transmits nor receives.
  // Upper layers are untouched — their timers fire into a dead radio,
  // which is exactly what a mote crash looks like to the network.
  void FailNode(NodeId id);
  bool IsFailed(NodeId id) const { return radio_.failed[id] != 0; }

  // Brings a crashed node back: it resumes both TX and RX. Frames whose
  // reception started while the node was down stay lost (the radio missed
  // their preamble), but anything arriving after this call is heard.
  // No-op on a node that is not failed.
  void RecoverNode(NodeId id);

  // Optional fault-injection tap consulted once per (sender, receiver)
  // pair at transmission time. Installed by fault::FaultInjector; the
  // decisions it returns are accounted in NodeCounters::injected_*.
  void SetLinkFaultHook(LinkFaultHook hook);

  // Time to clock out `bytes` at the configured data rate.
  sim::SimTime AirTime(size_t bytes) const;

  sim::SimTime PropagationDelay(NodeId a, NodeId b) const;

  const PhyConfig& config() const { return config_; }
  const Topology& topology() const { return *topology_; }

  // Publishes the frame table's use as pool.arena_allocs (frames stored)
  // and pool.arena_high_water (most frames held at once).
  void CollectMetrics(obs::Registry& registry) const;

 private:
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  // Reception marks.
  enum Mark : uint32_t {
    kCollided = 1,       // Overlapped another reception at its receiver.
    kLostToTx = 2,       // The receiver was transmitting.
    kDeadRx = 4,         // The receiver crashed while it arrived.
    kFailedAtBegin = 8,  // Crash state at begin, as known so far.
    kEndEvent = 16,      // Runs an end event, which bills it.
    kOwnEnd = 32,        // Billed at its own end key (see Meet).
    kBilled = 64,        // Billed by ApplyUntil before its frame left.
  };

  // One frame as one receiver hears it. Its end key is (at + airtime,
  // seq + 1); begin < position() < end means "arriving now".
  struct Reception {
    sim::SimTime at;  // Begin time.
    uint64_t seq;     // Begin key's seq.
    NodeId receiver;
    uint32_t marks;  // Not a char type: stores to it alias nothing else.
  };

  // An end event: the frame's reception `rx` ends at `key`.
  struct End {
    sim::EventKey key;
    uint32_t rx;
  };

  // A frame table slot. `refs` counts the end events still to run (plus
  // one while StartTransmission fans the frame out): the packet is live
  // for pool accounting while it is nonzero. The slot itself is reused
  // only once the frame has left the air.
  struct Frame {
    Packet packet;
    double rx_cost = 0.0;  // Energy of one reception.
    sim::SimTime airtime = 0;
    // Where it was sent from, the farthest receiver's distance, and the
    // topology's move count then: while no node moves, every receiver is
    // within `reach` of `from`.
    Point2D from;
    double reach = 0.0;
    uint64_t moves = 0;
    std::vector<Reception> rx;  // Fan-out order, receivers ascending.
    uint32_t first = 0;         // Index of the earliest begin (and end).
    uint32_t last = 0;          // Index of the latest begin (and end).
    std::vector<End> ends;      // Sorted by key once the fan-out is done.
    uint32_t next_end = 0;      // Index of the first end not yet run.
    uint32_t refs = 0;
    uint32_t next_free = kNoFrame;

    sim::EventKey Begin(size_t i) const { return {rx[i].at, rx[i].seq}; }
    sim::EventKey EndOf(size_t i) const {
      return {rx[i].at + airtime, rx[i].seq + 1};
    }
    // The receptions at `node`: at most a copy and its duplicate.
    std::pair<size_t, size_t> RangeOf(NodeId node) const;
  };

  // A frame with end events yet to run, and the key of the next one.
  struct InFlight {
    sim::EventKey head;
    uint32_t frame;
  };

  // A reception billed at its own end key rather than its frame's last.
  struct OwnEnd {
    sim::EventKey key;
    uint32_t frame;
    uint32_t rx;
  };

  // A sender's fan-out table: for neighbor k (in topology order) its
  // delay, and order[j] the neighbor whose reception has the j-th smallest
  // key, by (delay, k). Null delays mean the fan-out must be computed.
  struct FanOut {
    const uint16_t* delays = nullptr;
    const uint8_t* order = nullptr;
    double reach = 0.0;  // The farthest neighbor's distance.
  };

  sim::EventKey position() const { return sim_->scheduler().position(); }
  sim::SimTime DelayOver(double meters) const;
  // The sender's table, built on first use; null while the topology has
  // ever been mutated, or when one of the sender's delays exceeds
  // 65,535 ns (19.6 km at light speed) or it has more than 256 neighbors.
  FanOut FanOutOf(NodeId sender);
  // Fills the sender's table and returns its reach, or kNoTable.
  double BuildFanOut(NodeId sender);
  // False only when the two frames cannot share a receiver: no node has
  // moved between their sends and their senders are too far apart.
  static bool Near(const Frame& a, const Frame& b);
  // False only when `node` cannot be among `frame`'s receivers.
  bool MayReach(const Frame& frame, NodeId node) const;
  // Compares the frame being sent (`later`) with one on the air: marks
  // the receptions at a common receiver whose key intervals overlap
  // collided, and, where the two frames' end windows overlap and their
  // receptions cost different energy, bills those receptions at their own
  // end keys so each receiver's energy still adds in end-key order.
  void Meet(uint32_t earlier, uint32_t later);
  void BillAtOwnEnd(uint32_t frame, size_t first, size_t last);
  // Bills, in key order, every reception billed at its own end and every
  // frame whose last end comes before `before`; such frames leave the air.
  // Most calls find nothing due.
  void BillUntil(sim::EventKey before) {
    if (bill_due_ < before) BillDue(before);
  }
  void BillDue(sim::EventKey before);
  void Retire(size_t air_index);
  void UpdateBillDue();
  // Bills a finished reception's energy and, if it was lost to the
  // receiver's own transmission or collided, that count; returns whether
  // the frame arrived clean.
  bool Bill(NodeId receiver, double cost, uint32_t marks);
  void EndReception(uint32_t frame, uint32_t rx);
  uint32_t StoreFrame(const Packet& packet);
  void ReleaseFrame(uint32_t frame);
  void FreeFrame(uint32_t frame);
  sim::EventKey NextKey() override;
  void RunNext() override;
  sim::EventKey ApplyUntil(sim::SimTime deadline) override;

  sim::Simulator* sim_;
  const Topology* topology_;
  PhyConfig config_;
  CounterBoard* counters_;
  uint64_t next_uid_ = 1;
  std::vector<DeliveryHandler> delivery_;
  OverhearHandler overhear_;
  LinkFaultHook link_fault_;
  // Frame table: a deque, so a handler reading one frame may store more.
  std::deque<Frame> frames_;
  uint32_t free_frame_ = kNoFrame;
  // Frames on the air: sent, and not yet past their last end. A handful
  // at a time (at most 7 on the paper's N=600 round), so scans are cheap.
  std::vector<uint32_t> air_;
  // Receptions billed at their own end, sorted by end key.
  std::vector<OwnEnd> own_ends_;
  // The smallest key among air_'s last ends and own_ends_.
  sim::EventKey bill_due_ = sim::kNoEventKey;
  // Frames with end events yet to run: a handful at a time (at most 6 on
  // the paper's N=600 round), so NextKey scans them for the smallest head.
  std::vector<InFlight> in_flight_;
  size_t next_in_flight_ = 0;  // Where NextKey found the smallest head.
  uint64_t frames_stored_ = 0;
  size_t frames_live_ = 0;
  size_t frames_high_water_ = 0;
  RadioBoard radio_;  // SoA per-node tx-busy / crash-failed columns.
  // Fan-out tables, allocated on the first send: per-edge columns keyed
  // by the topology's CSR edge slots (3 bytes an edge), and each sender's
  // reach (kUnbuilt until its first send, kNoTable if it computes its
  // fan-out).
  static constexpr double kUnbuilt = -1.0;
  static constexpr double kNoTable = -2.0;
  std::vector<uint16_t> fan_delays_;
  std::vector<uint8_t> fan_order_;
  std::vector<double> fan_reach_;
};

}  // namespace ipda::net

#endif  // IPDA_NET_CHANNEL_H_
