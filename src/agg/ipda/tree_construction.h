// iPDA Phase I: disjoint aggregation-tree construction (§III-B).
//
// TreeBuilder is one node's role state machine, deliberately decoupled from
// the network: HELLO receptions are fed in, joins come out through a
// callback, and timers go through an injected scheduler — so the decision
// logic (Eq. 1 adaptive probabilities, Eq. 2 fixed 0.5/0.5, parent choice,
// conflicting-color detection) is unit-testable without radios.
//
// Protocol recap: the base station HELLOs as both colors; a node waits
// until it has heard both a red and a blue aggregator, gathers HELLOs for
// `decide_window`, then draws its role. Aggregators adopt the lowest-hop
// same-color sender as parent and rebroadcast HELLO; leaves stay silent.
// Nodes that never hear both colors never join (coverage loss factor (a)).

#ifndef IPDA_AGG_IPDA_TREE_CONSTRUCTION_H_
#define IPDA_AGG_IPDA_TREE_CONSTRUCTION_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "agg/ipda/config.h"
#include "agg/ipda/messages.h"
#include "net/topology.h"
#include "sim/time.h"
#include "util/random.h"

namespace ipda::agg {

// A neighbor known (from its HELLO) to aggregate on some tree.
struct NeighborAggregator {
  net::NodeId id;
  TreeColor color;
  uint32_t hop;
};

class TreeBuilder {
 public:
  // Relative-delay timer, supplied by the owner (usually the simulator).
  using ScheduleFn =
      std::function<void(sim::SimTime delay, std::function<void()> fn)>;
  // Invoked exactly once if/when this node joins a tree.
  using JoinedFn = std::function<void(const HelloMsg& hello)>;

  TreeBuilder(net::NodeId self, const IpdaConfig* config, util::Rng rng,
              ScheduleFn schedule, JoinedFn joined);

  TreeBuilder(const TreeBuilder&) = delete;
  TreeBuilder& operator=(const TreeBuilder&) = delete;

  // Administratively fixes the role before any HELLO arrives (base station,
  // or kExcluded during polluter-localization rounds).
  void ForceRole(NodeRole role);

  // Late joiners (mid-round churn) must not perturb the decided trees, so
  // the role draw is pinned to kLeaf: an undecided node with this set
  // becomes a leaf the moment it is covered (DESIGN.md §12).
  void SetLeafOnly(bool leaf_only) { leaf_only_ = leaf_only; }

  // Immediately decides kLeaf if undecided and covered (the join-solicit
  // completion path). Returns true if the node is now a decided leaf.
  bool JoinAsLeaf();

  // Re-points a decided aggregator at a new parent with the given parent
  // hop (incremental graft repair). The node's own hop becomes
  // parent_hop + 1; its color is unchanged.
  void Reparent(net::NodeId parent, uint32_t parent_hop);

  // Makes room for `senders` distinct HELLO senders up front (the node's
  // topology degree), so hearing them allocates nothing. More still fit.
  void ReserveSenders(size_t senders) { heard_.reserve(senders); }

  // Feeds one received HELLO. A node advertising two different colors is a
  // protocol violation (§III-B); it is blacklisted from neighbor lists.
  void OnHello(net::NodeId src, const HelloMsg& msg);

  bool decided() const { return role_ != NodeRole::kUndecided; }
  NodeRole role() const { return role_; }
  bool heard_red() const { return n_red_ > 0; }
  bool heard_blue() const { return n_blue_ > 0; }
  // Covered = can reach both trees in one hop (Fig. 8a numerator).
  bool covered() const { return heard_red() && heard_blue(); }

  // Valid only for aggregator roles.
  net::NodeId parent() const;
  uint32_t hop() const;

  // Neighbor aggregators of `color` heard so far (excludes blacklisted
  // double-color senders; includes the base station for either color),
  // written into `out` (overwritten, its capacity reused).
  void AggregatorNeighbors(TreeColor color,
                           std::vector<net::NodeId>& out) const;

  // Same set with each neighbor's advertised hop, in first-heard order.
  // Parent failover needs hops to re-route partials strictly rootward.
  std::vector<NeighborAggregator> AggregatorNeighborInfos(
      TreeColor color) const;

  size_t hello_count(TreeColor color) const {
    return color == TreeColor::kRed ? n_red_ : n_blue_;
  }

  // The role-draw probabilities this node would use right now; exposed for
  // tests and the analysis module.
  double ProbRed() const;
  double ProbBlue() const;

 private:
  void Decide();

  net::NodeId self_;
  const IpdaConfig* config_;
  util::Rng rng_;
  ScheduleFn schedule_;
  JoinedFn joined_;

  void ImpatientDecide();

  NodeRole role_ = NodeRole::kUndecided;
  bool leaf_only_ = false;
  bool timer_armed_ = false;
  bool impatient_armed_ = false;
  size_t n_red_ = 0;   // HELLOs heard from red aggregators (+ BS).
  size_t n_blue_ = 0;  // HELLOs heard from blue aggregators (+ BS).
  net::NodeId parent_ = net::kBroadcastId;
  uint32_t hop_ = 0;

  struct HeardEntry {  // Field order packs it into 12 bytes.
    net::NodeId id;
    uint32_t hop;
    TreeColor color;
    bool conflicted = false;  // Sent HELLOs with different colors.

    bool Serves(TreeColor c) const {
      return !conflicted && (color == c || color == TreeColor::kBoth);
    }
  };
  // One entry per distinct sender, in first-heard order (the parent
  // tie-break). A node hears a few dozen senders, so a linear scan of
  // this contiguous table beats hashing.
  std::vector<HeardEntry> heard_;
  // Bit (id mod 256) is set once a sender with that id was heard.
  std::array<uint64_t, 4> heard_filter_{};

  // Lowest-hop entry serving `color`; the earlier sender wins a tie.
  // nullptr if none does.
  const HeardEntry* BestParent(TreeColor color) const;
};

}  // namespace ipda::agg

#endif  // IPDA_AGG_IPDA_TREE_CONSTRUCTION_H_
