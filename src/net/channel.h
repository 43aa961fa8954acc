// Shared wireless medium with receiver-side collision modeling.
//
// A transmission physically reaches every topology neighbor of the sender.
// At each receiver, two frames whose airtimes overlap corrupt each other
// (no capture effect), and a half-duplex radio loses frames that arrive
// while it is itself transmitting. Frames that abut exactly (end == start)
// do not collide. This is the loss source the paper calls "factor (c)".
//
// Reception records (DESIGN.md §9). Each receiver keeps a short list of
// the receptions it has not yet settled: begin and end keys in dispatch
// order, the frame's length, and the collided / lost-to-transmit / dead
// marks. The keys take their sequence numbers from the scheduler exactly
// when the frame is sent, so a reception's edges sit among the queued
// events where a begin event and an end event would. Only a reception
// that runs code at its end — the unicast destination, every neighbor of
// a broadcast, every neighbor while an overhear tap is installed — gets an
// end event, and it is never queued: the frame keeps its ends in one list
// sorted by key, and the channel, as the scheduler's UnqueuedEvents
// source, offers the smallest head among the frames in flight. The others
// are settled (energy, collision and missed-while-transmitting counts) the
// next time the receiver's list is touched, in end order, or when
// RunUntil applies them at its deadline.

#ifndef IPDA_NET_CHANNEL_H_
#define IPDA_NET_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <functional>
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

  // Publishes the frame table's use as pool.arena_allocs (frames stored)
  // and pool.arena_high_water (most frames held at once).
  void CollectMetrics(obs::Registry& registry) const;

 private:
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  // One frame as one receiver hears it. Keys order its edges among the
  // scheduler's events; begin < position() < end means "arriving now".
  struct Reception {
    sim::EventKey begin;
    sim::EventKey end;
    uint32_t frame = kNoFrame;  // Frame-table index; kNoFrame: no end event.
    uint32_t bytes = 0;         // Frame length, for the energy bill.
    bool collided = false;         // Overlapped another reception.
    bool lost_to_tx = false;       // Receiver was transmitting.
    bool dead_rx = false;          // Receiver crashed while it arrived.
    bool failed_at_begin = false;  // Crash state at begin, as known so far.
  };

  // An end event: the reception at `receiver` ending at `key`.
  struct End {
    sim::EventKey key;
    NodeId receiver;
  };

  // A frame that receptions with end events still read. `refs` counts
  // them; runs are single-threaded, so a plain count does.
  struct Frame {
    Packet packet;
    std::vector<End> ends;  // Sorted by key once the fan-out is done.
    uint32_t next_end = 0;  // Index of the first end not yet run.
    uint32_t refs = 0;
    uint32_t next_free = kNoFrame;
  };

  // A frame with end events yet to run, and the key of the next one.
  struct InFlight {
    sim::EventKey head;
    uint32_t frame;
  };

  sim::EventKey position() const { return sim_->scheduler().position(); }
  // Adds a reception at `receiver` beginning at `begin_at` and reserves
  // its keys; when `frame` names a stored frame, also appends its end to
  // the frame's end list.
  void AddReception(NodeId receiver, sim::SimTime begin_at,
                    sim::SimTime airtime, uint32_t frame, uint32_t bytes);
  // Settles the receptions at `receiver` that ended before `before`.
  void Settle(NodeId receiver, sim::EventKey before);
  // Bills a finished reception's energy and, if it was lost to the
  // receiver's own transmission or collided, that count; returns whether
  // the frame arrived clean.
  bool Bill(NodeId receiver, const Reception& rx);
  // The end event of the reception at the head of `receiver`'s list.
  void EndReception(NodeId receiver);
  uint32_t StoreFrame(const Packet& packet);
  void ReleaseFrame(uint32_t frame);
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
  // Per receiver, unsettled receptions in end-key order.
  std::vector<std::vector<Reception>> receptions_;
  // Frame table: a deque, so a handler reading one frame may store more.
  std::deque<Frame> frames_;
  uint32_t free_frame_ = kNoFrame;
  // Frames with end events yet to run: a handful at a time (at most 6 on
  // the paper's N=600 round), so NextKey scans them.
  std::vector<InFlight> in_flight_;
  size_t next_in_flight_ = 0;  // Where NextKey found the smallest head.
  uint64_t frames_stored_ = 0;
  size_t frames_live_ = 0;
  size_t frames_high_water_ = 0;
  RadioBoard radio_;  // SoA per-node tx-busy / crash-failed columns.
};

}  // namespace ipda::net

#endif  // IPDA_NET_CHANNEL_H_
