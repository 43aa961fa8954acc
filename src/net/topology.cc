#include "net/topology.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/check.h"

namespace ipda::net {
namespace {

util::Status ValidateBuild(const std::vector<Point2D>& positions,
                           double range) {
  if (range <= 0.0) {
    return util::InvalidArgumentError("transmission range must be positive");
  }
  if (positions.empty()) {
    return util::InvalidArgumentError("topology needs at least one node");
  }
  return util::OkStatus();
}

// Ascending-list edits for one end of a gained or lost edge.
void InsertSorted(std::vector<NodeId>& list, NodeId v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end() || *it != v) list.insert(it, v);
}

void EraseSorted(std::vector<NodeId>& list, NodeId v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it != list.end() && *it == v) list.erase(it);
}

}  // namespace

util::Result<Topology> Topology::Build(std::vector<Point2D> positions,
                                       double range) {
  IPDA_RETURN_IF_ERROR(ValidateBuild(positions, range));
  const size_t n = positions.size();
  // Split into the SoA arrays first so the grid and the distance loop both
  // stream the coordinate columns.
  std::vector<double> xs(n), ys(n);
  for (size_t i = 0; i < n; ++i) {
    xs[i] = positions[i].x;
    ys[i] = positions[i].y;
  }
  SpatialHash grid(xs.data(), ys.data(), n, range);
  const double range_sq = range * range;
  // One sweep over cell blocks straight into CSR form, exploiting edge
  // symmetry: each node keeps only candidates with LARGER ids (half the
  // edge records, and the self-pair drops out for free). The candidate
  // block is gathered once per CELL (not once per node, amortizing the
  // bucket walk over every member); candidate coordinates are copied
  // into contiguous scratch so the distance loop streams instead of
  // chasing ids. Only the ~half-degree larger-lists ever need sorting —
  // the smaller-neighbor half of every list is reconstructed afterwards
  // by scattering the larger-lists in global id order, which lands each
  // target's entries ascending by construction — so the sort cost is a
  // per-node insertion-depth sort of ~k/2 ids instead of a per-cell
  // candidate-block sort. The final CSR bytes are exactly the
  // all-pairs scan's (bench/brute_force_topology.h).
  std::vector<uint32_t> candidates;
  std::vector<double> cand_xs, cand_ys;
  std::vector<NodeId> scratch;
  size_t scratch_len = 0;
  // Node i's LARGER-id neighbors occupy scratch[span_start[i] ..+ len],
  // with len accumulated in larger_len[i].
  std::vector<uint32_t> span_start(n, 0);
  std::vector<uint32_t> larger_len(n, 0);
  std::vector<uint32_t> offsets(n + 1, 0);
  for (size_t c = 0; c < grid.cell_count(); ++c) {
    const std::vector<uint32_t>& members = grid.cell_members(c);
    if (members.empty()) continue;
    candidates.clear();
    grid.CellCandidates(c, range, xs.data(), ys.data(), candidates);
    const size_t k = candidates.size();
    cand_xs.resize(k);
    cand_ys.resize(k);
    for (size_t t = 0; t < k; ++t) {
      cand_xs[t] = xs[candidates[t]];
      cand_ys[t] = ys[candidates[t]];
    }
    // Room for the worst case (every candidate accepted for every
    // member) so the inner loop can run branchless stream compaction:
    // write unconditionally, advance by the predicate. The accept branch
    // is ~1/6-taken here — mispredicting it per candidate costs more
    // than the always-taken store.
    if (scratch.size() < scratch_len + members.size() * k) {
      scratch.resize(scratch_len + members.size() * k);
    }
    for (uint32_t i : members) {
      const double xi = xs[i], yi = ys[i];
      span_start[i] = static_cast<uint32_t>(scratch_len);
      NodeId* out = scratch.data() + scratch_len;
      size_t accepted = 0;
      for (size_t t = 0; t < k; ++t) {
        const double dx = xi - cand_xs[t];
        const double dy = yi - cand_ys[t];
        out[accepted] = static_cast<NodeId>(candidates[t]);
        accepted += static_cast<size_t>(
            (candidates[t] > i) & (dx * dx + dy * dy <= range_sq));
      }
      // Candidates arrive bucket-run-ordered, not globally sorted; the
      // accepted half-list is tiny, so sort it here.
      std::sort(out, out + accepted);
      larger_len[i] = static_cast<uint32_t>(accepted);
      scratch_len += accepted;
    }
  }
  // Total degree = larger-list length + incoming count from smaller ids.
  for (size_t i = 0; i < n; ++i) {
    offsets[i + 1] += larger_len[i];
    const NodeId* larger = scratch.data() + span_start[i];
    for (uint32_t t = 0; t < larger_len[i]; ++t) ++offsets[larger[t] + 1];
  }
  for (size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  std::vector<NodeId> flat(offsets[n]);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  // Scatter the smaller-id halves first: iterating sources in ascending
  // id order lands every target's entries ascending, and all of them
  // precede the (strictly larger) ids appended from the scratch spans.
  for (size_t i = 0; i < n; ++i) {
    const NodeId* larger = scratch.data() + span_start[i];
    for (uint32_t t = 0; t < larger_len[i]; ++t) {
      flat[cursor[larger[t]]++] = static_cast<NodeId>(i);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    std::copy(scratch.begin() + span_start[i],
              scratch.begin() + span_start[i] + larger_len[i],
              flat.begin() + cursor[i]);
  }
  Topology topology(std::move(xs), std::move(ys), range, std::move(offsets),
                    std::move(flat));
  topology.grid_ = std::move(grid);
  return topology;
}

util::Result<Topology> Topology::RandomGeometric(
    const DeploymentConfig& config, double range, util::Rng& rng) {
  IPDA_ASSIGN_OR_RETURN(std::vector<Point2D> positions,
                        UniformDeployment(config, rng));
  return Build(std::move(positions), range);
}

util::Result<Topology> Topology::RegularRing(size_t n, size_t d) {
  if (d == 0 || d % 2 != 0 || d >= n) {
    return util::InvalidArgumentError(
        "regular ring requires even degree d with 0 < d < n");
  }
  constexpr double kRadius = 1000.0;
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  std::vector<Point2D> positions;
  positions.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double theta = kTwoPi * static_cast<double>(i) /
                         static_cast<double>(n);
    positions.push_back(
        Point2D{kRadius * std::cos(theta), kRadius * std::sin(theta)});
  }
  std::vector<std::vector<NodeId>> adjacency(n);
  const size_t half = d / 2;
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 1; k <= half; ++k) {
      const NodeId fwd = static_cast<NodeId>((i + k) % n);
      adjacency[i].push_back(fwd);
      adjacency[fwd].push_back(static_cast<NodeId>(i));
    }
  }
  for (auto& list : adjacency) std::sort(list.begin(), list.end());
  // Range is nominal here: adjacency was constructed directly.
  return Topology(std::move(positions), 1.0, adjacency);
}

Topology::Topology(std::vector<double> xs, std::vector<double> ys,
                   double range, std::vector<uint32_t> offsets,
                   std::vector<NodeId> flat)
    : xs_(std::move(xs)),
      ys_(std::move(ys)),
      range_(range),
      offsets_(std::move(offsets)),
      flat_(std::move(flat)) {}

Topology::Topology(std::vector<Point2D> positions, double range,
                   const std::vector<std::vector<NodeId>>& adjacency)
    : range_(range) {
  const size_t n = adjacency.size();
  xs_.resize(n);
  ys_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    xs_[i] = positions[i].x;
    ys_[i] = positions[i].y;
  }
  offsets_.resize(n + 1);
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    offsets_[i] = static_cast<uint32_t>(total);
    total += adjacency[i].size();
  }
  offsets_[n] = static_cast<uint32_t>(total);
  flat_.reserve(total);
  for (const auto& list : adjacency) {
    flat_.insert(flat_.end(), list.begin(), list.end());
  }
}

void Topology::EnsureGrid() {
  if (grid_.empty()) {
    grid_ = SpatialHash(xs_.data(), ys_.data(), node_count(), range_);
  }
}

void Topology::EnsureActiveFlags() {
  if (active_.empty()) active_.assign(node_count(), 1);
}

std::vector<NodeId>& Topology::PatchFor(NodeId id) {
  if (patch_index_.empty()) patch_index_.assign(node_count(), -1);
  int32_t p = patch_index_[id];
  if (p < 0) {
    p = static_cast<int32_t>(patch_lists_.size());
    // Materialize from the CSR arrays directly: patch_index_[id] is still
    // -1, so neighbors(id) would read the same bytes. A few spare slots
    // keep the first edges the node gains from reallocating the list.
    constexpr size_t kSpareSlots = 4;
    const auto begin = flat_.begin() + offsets_[id];
    const auto end = flat_.begin() + offsets_[id + 1];
    std::vector<NodeId>& list = patch_lists_.emplace_back();
    list.reserve(static_cast<size_t>(end - begin) + kSpareSlots);
    list.assign(begin, end);
    patch_index_[id] = p;
  }
  return patch_lists_[p];
}

void Topology::RefreshEdges(NodeId id) {
  // Desired edge set under the unit-disk model, active nodes only. The
  // grid prunes the scan to the cell block around `id`; the exact
  // predicate below matches the build, so churn re-links agree with a
  // from-scratch rebuild bit for bit. A step usually changes about one
  // edge, so the pass marks the current neighbors, visits the block once
  // and touches only the lists of the edges it gained or lost.
  EnsureGrid();
  if (marks_.empty()) marks_.assign(node_count(), 0);
  // Any refresh of an active node counts as a mutation (mutated()), even
  // one that changes no edge.
  if (patch_index_.empty()) patch_index_.assign(node_count(), -1);
  // A mark still set after the block visit is a lost edge.
  for (NodeId v : neighbors(id)) marks_[v] = 1;
  gained_.clear();
  const double x = xs_[id], y = ys_[id];
  const double range_sq = range_ * range_;
  grid_.ForEachCandidate(position(id), range_, [&](uint32_t v) {
    if (v == id || !active(v)) return;
    const double dx = x - xs_[v];
    const double dy = y - ys_[v];
    if (!(dx * dx + dy * dy <= range_sq)) return;
    if (marks_[v] != 0) {
      marks_[v] = 0;  // Kept.
    } else {
      gained_.push_back(v);
    }
  });
  lost_.clear();
  for (NodeId v : neighbors(id)) {
    if (marks_[v] != 0) {
      lost_.push_back(v);
      marks_[v] = 0;
    }
  }
  if (gained_.empty() && lost_.empty()) return;
  edge_changes_ += gained_.size() + lost_.size();
  for (NodeId v : lost_) EraseSorted(PatchFor(v), id);
  for (NodeId v : gained_) InsertSorted(PatchFor(v), id);
  std::vector<NodeId>& own = PatchFor(id);
  for (NodeId v : lost_) EraseSorted(own, v);
  for (NodeId v : gained_) InsertSorted(own, v);
}

void Topology::DetachNode(NodeId id) {
  IPDA_DCHECK(id < node_count());
  ++mutations_;
  EnsureActiveFlags();
  active_[id] = 0;
  // Copied into reused scratch before any PatchFor call can move the
  // overlay storage a NeighborSpan would point into.
  const NeighborSpan span = neighbors(id);
  lost_.assign(span.begin(), span.end());
  for (NodeId v : lost_) EraseSorted(PatchFor(v), id);
  PatchFor(id).clear();
}

void Topology::AttachNode(NodeId id) {
  IPDA_DCHECK(id < node_count());
  ++mutations_;
  EnsureActiveFlags();
  active_[id] = 1;
  RefreshEdges(id);
}

void Topology::MoveNode(NodeId id, Point2D to) {
  IPDA_DCHECK(id < node_count());
  ++moves_;
  ++mutations_;
  if (!grid_.empty()) grid_.Move(id, position(id), to);
  xs_[id] = to.x;
  ys_[id] = to.y;
  if (!active(id)) return;  // Rejoin at the new position picks this up.
  RefreshEdges(id);
}

void Topology::Compact() {
  if (patch_index_.empty()) return;
  ++mutations_;
  // Straight from the overlay into fresh CSR arrays: no per-node lists.
  const size_t n = node_count();
  std::vector<uint32_t> offsets(n + 1);
  size_t total = 0;
  for (NodeId i = 0; i < n; ++i) {
    offsets[i] = static_cast<uint32_t>(total);
    total += degree(i);
  }
  offsets[n] = static_cast<uint32_t>(total);
  std::vector<NodeId> flat(total);
  for (NodeId i = 0; i < n; ++i) {
    const NeighborSpan span = neighbors(i);
    std::copy(span.begin(), span.end(), flat.begin() + offsets[i]);
  }
  offsets_ = std::move(offsets);
  flat_ = std::move(flat);
  patch_index_.clear();
  patch_lists_.clear();
}

bool Topology::AreNeighbors(NodeId a, NodeId b) const {
  IPDA_DCHECK(a < node_count() && b < node_count());
  // Neighbor lists are sorted ascending by construction.
  const NeighborSpan list = neighbors(a);
  return std::binary_search(list.begin(), list.end(), b);
}

double Topology::AverageDegree() const {
  if (xs_.empty()) return 0.0;
  if (!mutated()) {
    return static_cast<double>(flat_.size()) /
           static_cast<double>(xs_.size());
  }
  size_t total = 0;
  for (NodeId i = 0; i < node_count(); ++i) total += degree(i);
  return static_cast<double>(total) / static_cast<double>(xs_.size());
}

size_t Topology::MinDegree() const {
  if (xs_.empty()) return 0;
  size_t best = SIZE_MAX;
  for (NodeId i = 0; i < node_count(); ++i) best = std::min(best, degree(i));
  return best;
}

size_t Topology::MaxDegree() const {
  size_t best = 0;
  for (NodeId i = 0; i < node_count(); ++i) best = std::max(best, degree(i));
  return best;
}

std::vector<uint32_t> Topology::HopCounts() const {
  std::vector<uint32_t> hops(node_count(), UINT32_MAX);
  std::queue<NodeId> frontier;
  hops[kBaseStationId] = 0;
  frontier.push(kBaseStationId);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : neighbors(u)) {
      if (hops[v] == UINT32_MAX) {
        hops[v] = hops[u] + 1;
        frontier.push(v);
      }
    }
  }
  return hops;
}

bool Topology::IsConnected() const {
  for (uint32_t h : HopCounts()) {
    if (h == UINT32_MAX) return false;
  }
  return true;
}

}  // namespace ipda::net
