// iPDA protocol engine (§III): runs the three phases over a net::Network.
//
//   Phase I   disjoint tree construction  (TreeBuilder per node)
//   Phase II  slicing + assembling        (SliceVector/PlanSlices + crypto)
//   Phase III per-tree aggregation        (depth-slotted reports)
//
// The engine is attack-instrumentable: a pollution hook lets a compromised
// aggregator tamper with its outgoing partial, and nodes can be excluded
// per round for the §III-D polluter-localization procedure.

#ifndef IPDA_AGG_IPDA_PROTOCOL_H_
#define IPDA_AGG_IPDA_PROTOCOL_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/ipda/base_station.h"
#include "agg/ipda/config.h"
#include "agg/ipda/messages.h"
#include "agg/ipda/slicing.h"
#include "agg/ipda/tree_construction.h"
#include "crypto/keystore.h"
#include "net/network.h"

namespace ipda::agg {

struct IpdaStats {
  // Phase I census.
  size_t covered_both = 0;   // Heard both colors (Fig. 8a numerator).
  size_t red_aggregators = 0;
  size_t blue_aggregators = 0;
  size_t leaves = 0;
  size_t undecided = 0;      // Never covered; outside both trees.
  size_t excluded = 0;
  // Phase II.
  size_t participants = 0;   // Contributed a full slice set (Fig. 8b).
  size_t slices_sent = 0;    // Over-the-air slice transmissions.
  size_t slice_decrypt_failures = 0;
  // Phase III.
  size_t reports_sent = 0;
  // Failure resilience (fault-injection rounds; see IpdaConfig knobs).
  size_t slices_retargeted = 0;  // Re-aimed away from a dead aggregator.
  size_t slices_lost = 0;        // ARQ failed, no live alternate target.
  size_t reports_rerouted = 0;   // Partials re-sent to an alternate parent.
  size_t orphaned_partials = 0;  // Partials with no live rootward parent.
  size_t late_partials = 0;      // Absorbed after the parent had reported.
  // Mid-round churn response (churn_response != kNone; DESIGN.md §12).
  size_t joins_absorbed = 0;        // Late joiners admitted to the trees.
  size_t grafts = 0;                // Orphaned aggregators re-parented.
  size_t disjoint_violations = 0;   // Grafts that crossed tree colors.
  size_t backoff_retries = 0;       // Control retries past the first try.
  size_t repair_budget_exhausted = 0;  // Nodes that ran out of attempts.
  size_t relay_forwards = 0;        // Cross-tree relays forwarded rootward.
  size_t relays_lost = 0;           // Relays that died on a dead link.
  size_t rebuild_floods = 0;        // Full HELLO re-floods (kRebuild).
  size_t churn_control_msgs = 0;    // Tree-control frames churn cost us.
  // Backoff delay between losing a parent and re-sending the partial.
  std::vector<double> repair_latencies_ms;
  // Delivered / expected aggregator partials per tree (1.0 when whole).
  double completeness_red = 1.0;
  double completeness_blue = 1.0;
  // True when the round finalized knowing data went missing: a partial
  // never arrived, arrived too late to be forwarded, or a slice died with
  // its target. §III-D's ambiguity made concrete: the base station can
  // tell *that* data is missing, not whether failure or pollution did it.
  bool degraded = false;
  // Base-station outcome.
  IntegrityDecision decision;
};

// One incremental tree repair: `node` (an aggregator of `color`) lost its
// parent and re-attached under `new_parent`. `degraded` marks the
// fallback where no node-disjoint (same-color) parent existed and the
// partial traveled up the other tree as a kRelay instead.
struct GraftRecord {
  net::NodeId node = 0;
  TreeColor color = TreeColor::kRed;
  net::NodeId new_parent = 0;
  bool degraded = false;
};

class IpdaProtocol {
 public:
  // Invoked as (node, tree color, partial) just before a compromised
  // aggregator transmits; mutate `partial` to pollute.
  using PollutionHook =
      std::function<void(net::NodeId, TreeColor, Vector& partial)>;

  // Ground-truth tap for every slice a node produces: transmitted slices
  // carry the target id; the locally kept slice (d_ii) reports
  // to == from. Attack evaluations subscribe here to decide what a given
  // link-compromise set would reveal.
  using SliceObserver = std::function<void(
      net::NodeId from, net::NodeId to, TreeColor color,
      const Vector& slice)>;

  // `network` and `function` must outlive the protocol.
  IpdaProtocol(net::Network* network, const AggregateFunction* function,
               IpdaConfig config = {});

  IpdaProtocol(const IpdaProtocol&) = delete;
  IpdaProtocol& operator=(const IpdaProtocol&) = delete;

  // readings[id] is node id's sensor value; index 0 (base station) ignored.
  void SetReadings(std::vector<double> readings);

  // Disseminates `query` with the HELLO flood (§III-A). Sensors then
  // derive their contribution from the query they actually received —
  // one that never reaches a node keeps it out of the round. The query
  // must describe the same aggregate as the constructor's function.
  void SetQuery(const Query& query);

  // Supplies externally provisioned link keys (e.g. EG predistribution).
  // Indexed by node id; must outlive the protocol. Without this call the
  // protocol provisions pairwise keys over every topology edge itself.
  void SetLinkCrypto(std::vector<crypto::LinkCrypto>* cryptos);

  void SetPollutionHook(PollutionHook hook);

  void SetSliceObserver(SliceObserver observer);

  // Nodes barred from this round (forced out of both trees and slicing).
  void SetExcludedNodes(const std::vector<net::NodeId>& nodes);

  // Installs handlers and schedules all three phases; afterwards advance
  // the simulator to at least Duration(), then call Finish().
  void Start();

  // Churn signals (wired by agg::Runner to the fault::ChurnInjector).
  // `id` (re)joined the network with fresh topology edges: under kRepair
  // it solicits admission as a leaf on both trees; under kRebuild the
  // next flood covers it. No-op when churn_response is kNone.
  void OnChurnJoin(net::NodeId id);
  // Some edge set changed. kRebuild re-floods HELLOs (throttled by
  // rebuild_min_interval); kRepair relies on ARQ-driven grafting instead.
  void OnTopologyChange();

  // Covers the configured round deadline even when it exceeds the
  // nominal three-phase schedule.
  sim::SimTime Duration() const;

  // Computes the base-station decision and the role census. Idempotent.
  const IpdaStats& Finish();

  const IpdaStats& stats() const { return stats_; }
  const IpdaConfig& config() const { return config_; }

  // Base-station answer (red/blue mean) after Finish().
  double FinalizedResult() const {
    return function_->Finalize(stats_.decision.Agreed());
  }

  // Introspection for tests and analyses.
  const TreeBuilder& builder(net::NodeId id) const {
    return *states_[id].builder;
  }
  bool participated(net::NodeId id) const {
    return states_[id].participated;
  }
  // Every repair graft performed this round, in order. Tests assert the
  // node-disjointness invariant over these records.
  const std::vector<GraftRecord>& graft_log() const { return grafts_; }

 private:
  // A transmitted slice the sender remembers until the round ends, so an
  // ARQ failure can re-aim it at a live aggregator (retarget_slices).
  struct PendingSlice {
    net::NodeId target;
    TreeColor color;
    Vector slice;
    uint32_t attempts = 0;  // Re-aims consumed.
  };

  struct NodeState {
    std::unique_ptr<TreeBuilder> builder;
    Vector assembled;  // r(j): kept slice + received slices.
    Vector children;   // Partials folded in from tree children.
    // What Report() sent, kept when it may be resent (failover, repair).
    Vector last_partial;
    std::optional<Query> received_query;
    std::vector<PendingSlice> pending_slices;
    std::vector<net::NodeId> dead_neighbors;  // Declared dead by ARQ.
    // Advancing per-node stream for churn-control jitter/backoff draws
    // (Rng::Fork is label-deterministic, so repeated forks would repeat
    // the same values; this one is forked once and then stepped).
    std::optional<util::Rng> repair_rng;
    uint32_t repair_attempts = 0;  // Control-attempt budget consumed.
    bool join_pending = false;     // Mid-round joiner awaiting admission.
    bool participated = false;
    bool excluded = false;
    bool reported = false;  // Phase III partial already transmitted.
  };

  void OnPacket(net::NodeId self, const net::Packet& packet);
  void OnSendFailure(net::NodeId self, const net::Packet& packet);
  void RetargetSlice(net::NodeId self, net::NodeId dead_target);
  void FailoverReport(net::NodeId self);
  // Jittered exponential backoff for tree-control retries:
  // min(base * 2^attempt, max) + U[0, base).
  sim::SimTime BackoffDelay(NodeState& state, uint32_t attempt);
  // kRepair: broadcast a kJoin solicitation, re-checking coverage (and
  // retrying under backoff) until admitted or the budget runs out.
  void SendJoinSolicit(net::NodeId self, uint32_t attempt);
  // Leaf admission once a joiner is covered; slices late if time allows.
  void CompleteJoin(net::NodeId self);
  // kRepair: re-parent an orphaned aggregator, preserving disjointness
  // when possible, falling back to a degraded cross-tree kRelay.
  void RepairGraft(net::NodeId self);
  // kRebuild: re-flood HELLOs from the base station and every decided
  // aggregator (the from-scratch baseline).
  void DoRebuildFlood();
  bool IsDeadNeighbor(const NodeState& state, net::NodeId id) const;
  void ScheduleHellos(net::NodeId self, const HelloMsg& hello,
                      util::Rng& rng);
  void OnJoined(net::NodeId self, const HelloMsg& hello);
  void DoSlicing(net::NodeId self);
  // True when every heard aggregator holds a link key by construction,
  // so DoSlicing may skip the per-candidate keystore search: the protocol
  // provisioned the keys itself over the topology's edges, and either it
  // derives a key for any peer on contact or no edge has changed since.
  bool NeighborsKeyed() const;
  void DeliverSlices(net::NodeId self, TreeColor color,
                     const ColorPlan& plan, util::Rng& rng);
  void SendSlice(net::NodeId self, net::NodeId target, TreeColor color,
                 const Vector& slice);
  void Report(net::NodeId self);
  crypto::LinkCrypto& crypto_for(net::NodeId id) { return (*cryptos_)[id]; }

  net::Network* network_;
  const AggregateFunction* function_;
  IpdaConfig config_;
  std::optional<Query> query_;
  std::vector<double> readings_;
  std::vector<NodeState> states_;
  BaseStationAccumulator bs_acc_;
  std::vector<crypto::LinkCrypto> owned_cryptos_;
  std::vector<crypto::LinkCrypto>* cryptos_ = nullptr;
  PollutionHook pollution_hook_;
  SliceObserver slice_observer_;
  // partial_delivered_[id]: aggregator id's Phase III partial was absorbed
  // somewhere useful (at its parent before the parent reported, or at the
  // base station). Feeds the per-tree completeness ratios.
  std::vector<bool> partial_delivered_;
  std::vector<GraftRecord> grafts_;
  sim::SimTime last_rebuild_ = -1;
  bool rebuild_pending_ = false;
  // Message-path scratch, reused by every node (handlers and slicing run
  // one at a time), so the only allocation a sent slice or partial costs
  // is the payload buffer handed to the MAC.
  struct Scratch {
    std::vector<net::NodeId> red;   // Slice candidates per color.
    std::vector<net::NodeId> blue;
    SlicePlan plan;
    Vector contribution;
    std::vector<Vector> slices;
    util::Bytes opened;  // Plaintext of the slice being received.
    Vector decoded;      // Its slice, or a received partial.
    Vector partial;      // The partial being reported.
  };
  Scratch scratch_;
  // The last HELLO decoded (nullopt if malformed) and its frame's uid.
  uint64_t hello_uid_ = 0;
  std::optional<HelloMsg> hello_;
  IpdaStats stats_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace ipda::agg

#endif  // IPDA_AGG_IPDA_PROTOCOL_H_
