// Connectivity graph over deployed nodes.
//
// Two nodes share a (bidirectional) wireless link iff their distance is at
// most the transmission range — the unit-disk model the paper assumes.
// Node ids index into the position arrays; id 0 is the base station.
//
// City-scale layout (DESIGN.md §13): positions are stored as SoA
// coordinate arrays (xs_/ys_) indexed by the CSR node id, and the graph is
// built through a uniform-grid SpatialHash, so construction and churn
// re-links are O(N·k) instead of the old O(N²) all-pairs scan. The grid
// only prunes candidates; the exact distance predicate is unchanged, so
// the adjacency (and every golden trace downstream) is byte-identical to
// an all-pairs scan. That scan lives with its users, the property suite
// and the city_scale bench (bench/brute_force_topology.h).

#ifndef IPDA_NET_TOPOLOGY_H_
#define IPDA_NET_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "net/deployment.h"
#include "net/geometry.h"
#include "net/spatial_hash.h"
#include "util/random.h"
#include "util/result.h"

namespace ipda::net {

using NodeId = uint32_t;
constexpr NodeId kBaseStationId = 0;
constexpr NodeId kBroadcastId = UINT32_MAX;

// Borrowed view of one node's neighbor list inside the CSR arrays. Cheap
// to copy; valid as long as the owning Topology lives.
class NeighborSpan {
 public:
  NeighborSpan(const NodeId* data, size_t size) : data_(data), size_(size) {}

  const NodeId* begin() const { return data_; }
  const NodeId* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  NodeId operator[](size_t i) const { return data_[i]; }

 private:
  const NodeId* data_;
  size_t size_;
};

class Topology {
 public:
  // Builds the unit-disk graph via the spatial hash; range must be
  // positive.
  static util::Result<Topology> Build(std::vector<Point2D> positions,
                                      double range);

  // Uniform-random deployment + unit-disk graph in one call.
  static util::Result<Topology> RandomGeometric(
      const DeploymentConfig& config, double range, util::Rng& rng);

  // A ring lattice where every node links to its d/2 nearest neighbors on
  // each side: the "d-regular graph" used in the paper's analysis examples.
  // Requires d even, 0 < d < n. Positions are placed on a circle.
  static util::Result<Topology> RegularRing(size_t n, size_t d);

  size_t node_count() const { return xs_.size(); }
  double range() const { return range_; }
  Point2D position(NodeId id) const { return Point2D{xs_[id], ys_[id]}; }
  double x(NodeId id) const { return xs_[id]; }
  double y(NodeId id) const { return ys_[id]; }

  // Neighbor ids in ascending order. Adjacency is stored CSR-style (flat
  // offsets + one contiguous neighbor array), so iterating a node's
  // neighborhood is a linear walk with no per-node vector indirection.
  // Mid-round churn mutations live in a patch overlay: a node touched by a
  // mutation is redirected to its patched list, everyone else stays on the
  // CSR arrays, and the steady state (no mutations) pays one branch.
  NeighborSpan neighbors(NodeId id) const {
    if (!patch_index_.empty()) {
      const int32_t p = patch_index_[id];
      if (p >= 0) {
        const std::vector<NodeId>& list = patch_lists_[p];
        return NeighborSpan(list.data(), list.size());
      }
    }
    const uint32_t begin = offsets_[id];
    return NeighborSpan(flat_.data() + begin, offsets_[id + 1] - begin);
  }
  size_t degree(NodeId id) const { return neighbors(id).size(); }
  bool AreNeighbors(NodeId a, NodeId b) const;

  // --- Mid-round topology churn (DESIGN.md §12) ---
  // Detached nodes keep their slot (ids stay stable) but have no edges.
  bool active(NodeId id) const {
    return active_.empty() || active_[id] != 0;
  }
  // True while the patch overlay holds uncompacted mutations.
  bool mutated() const { return !patch_index_.empty(); }
  // DetachNode, AttachNode, MoveNode and overlay-folding Compact calls so
  // far. While it reads 0, positions and the CSR arrays are as built.
  uint64_t mutations() const { return mutations_; }
  // Removes every edge of `id` and marks it inactive (leave / pre-join).
  void DetachNode(NodeId id);
  // Marks `id` active and recomputes its unit-disk edges against the
  // currently active nodes (join / rejoin).
  void AttachNode(NodeId id);
  // Updates `id`'s position; if active, refreshes its unit-disk edge set.
  void MoveNode(NodeId id, Point2D to);
  // MoveNode calls so far: no position changed between two equal readings.
  uint64_t moves() const { return moves_; }
  // Edges gained plus edges lost by the re-links of MoveNode and
  // AttachNode so far (DetachNode's removals are not counted): the useful
  // work of the refreshes.
  uint64_t edge_changes() const { return edge_changes_; }
  // Folds the patch overlay back into CSR form (round boundary). Active
  // flags persist; only the adjacency representation is rebuilt.
  void Compact();

  // Slot of `id`'s first neighbor in the CSR neighbor array, which holds
  // edge_slots() entries: one per (node, neighbor) pair. Stable while
  // mutations() reads 0, so callers may key per-edge data by it.
  uint32_t edge_slot(NodeId id) const { return offsets_[id]; }
  size_t edge_slots() const { return flat_.size(); }

  // Mean degree over all nodes.
  double AverageDegree() const;
  size_t MinDegree() const;
  size_t MaxDegree() const;

  // True if every node can reach the base station.
  bool IsConnected() const;

  // Hop distance from the base station to every node (UINT32_MAX if
  // unreachable).
  std::vector<uint32_t> HopCounts() const;

 private:
  // Flattens the per-node lists (already sorted ascending) into CSR form.
  Topology(std::vector<Point2D> positions, double range,
           const std::vector<std::vector<NodeId>>& adjacency);

  // Adopts already-built SoA columns and CSR arrays (Build()'s direct
  // construction path — no intermediate per-node lists).
  Topology(std::vector<double> xs, std::vector<double> ys, double range,
           std::vector<uint32_t> offsets, std::vector<NodeId> flat);

  // Builds the grid over the current coordinates on first churn use
  // (Build() installs it eagerly; RegularRing graphs get it lazily so the
  // steady state never pays for it).
  void EnsureGrid();

  // Returns `id`'s mutable patched neighbor list, materializing it from
  // the CSR arrays on first touch.
  std::vector<NodeId>& PatchFor(NodeId id);
  void EnsureActiveFlags();
  // Recomputes `id`'s unit-disk edge set against active nodes in one pass
  // over its grid block and patches both ends of every gained or lost
  // edge, leaving unchanged lists alone. O(k) via the spatial hash.
  void RefreshEdges(NodeId id);

  // SoA node coordinates, indexed by CSR node id.
  std::vector<double> xs_;
  std::vector<double> ys_;
  double range_ = 0.0;
  // Uniform-grid index over xs_/ys_ (empty until EnsureGrid).
  SpatialHash grid_;
  // CSR adjacency: node i's neighbors are flat_[offsets_[i]..offsets_[i+1]).
  std::vector<uint32_t> offsets_;
  std::vector<NodeId> flat_;
  // Churn patch overlay. Empty patch_index_ = pristine CSR (the hot path);
  // patch_index_[i] >= 0 redirects node i to patch_lists_[patch_index_[i]].
  std::vector<int32_t> patch_index_;
  std::vector<std::vector<NodeId>> patch_lists_;
  std::vector<uint8_t> active_;  // Empty = everyone active.
  // RefreshEdges state, allocated on the first refresh: marks_[v] flags
  // the refreshed node's current neighbors not yet seen in range (all
  // zero between calls), and gained_/lost_ collect the edge changes;
  // DetachNode reuses lost_.
  std::vector<uint8_t> marks_;
  std::vector<NodeId> gained_;
  std::vector<NodeId> lost_;
  uint64_t moves_ = 0;
  uint64_t mutations_ = 0;
  uint64_t edge_changes_ = 0;
};

}  // namespace ipda::net

#endif  // IPDA_NET_TOPOLOGY_H_
