// Uniform-grid spatial index over node positions.
//
// Cells are sized to the radio range, so a unit-disk neighbor query visits
// at most the 3x3 cell block around a node instead of every node: the
// O(N^2) all-pairs scan becomes O(N*k) for k points per block. The grid is
// exact, not approximate — callers still apply the precise distance test,
// the grid only prunes candidates — so a graph built through it is
// byte-identical to the brute-force result.
//
// Grid dimensions are clamped to O(sqrt(N)) per axis so degenerate inputs
// (huge area, tiny range) cannot allocate an unbounded cell table; cells
// then cover more than one range-length and queries simply scan a wider
// block.

#ifndef IPDA_NET_SPATIAL_HASH_H_
#define IPDA_NET_SPATIAL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/geometry.h"

namespace ipda::net {

class SpatialHash {
 public:
  SpatialHash() = default;

  // Bins the SoA coordinate arrays with target cell edge `cell_size`
  // (the radio range). Both arrays must have `count` entries.
  SpatialHash(const double* xs, const double* ys, size_t count,
              double cell_size);

  bool empty() const { return cells_.empty(); }

  // Re-bins `id` after a position change. Positions outside the original
  // bounding box clamp into the border cells, which keeps queries exact
  // (cell lookup is monotone and clamped identically on both sides).
  void Move(uint32_t id, Point2D from, Point2D to);

  // Calls fn(id) for every id whose cell intersects the disk around
  // `center`, the node's own cell included, each id once. A superset of
  // the true in-range set: callers filter with the exact distance
  // predicate. Nothing is copied; fn must not move nodes.
  template <typename Fn>
  void ForEachCandidate(Point2D center, double radius, Fn&& fn) const {
    const size_t cx_lo = ClampedX(center.x - radius);
    const size_t cx_hi = ClampedX(center.x + radius);
    const size_t cy_lo = ClampedY(center.y - radius);
    const size_t cy_hi = ClampedY(center.y + radius);
    for (size_t cy = cy_lo; cy <= cy_hi; ++cy) {
      for (size_t cx = cx_lo; cx <= cx_hi; ++cx) {
        for (uint32_t id : cells_[cy * nx_ + cx]) fn(id);
      }
    }
  }

  // Bulk variant for cell-at-a-time builds: appends a superset of the
  // union of ForEachCandidate(p, radius) over every member p of cell `c`.
  // The block is derived from the members' actual coordinate min/max
  // through the same monotone clamped lookup as the per-point query, so
  // the superset guarantee is inherited, clamped border cells included.
  void CellCandidates(size_t c, double radius, const double* xs,
                      const double* ys, std::vector<uint32_t>& out) const;

  // Members of cell `c` in ascending id order (binning is id-ordered).
  const std::vector<uint32_t>& cell_members(size_t c) const {
    return cells_[c];
  }

  size_t cell_count() const { return cells_.size(); }

 private:
  size_t ClampedX(double x) const;
  size_t ClampedY(double y) const;
  size_t CellOf(double x, double y) const {
    return ClampedY(y) * nx_ + ClampedX(x);
  }

  double min_x_ = 0.0, min_y_ = 0.0;
  double inv_cell_x_ = 0.0, inv_cell_y_ = 0.0;
  size_t nx_ = 0, ny_ = 0;
  std::vector<std::vector<uint32_t>> cells_;
};

}  // namespace ipda::net

#endif  // IPDA_NET_SPATIAL_HASH_H_
