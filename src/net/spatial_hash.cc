#include "net/spatial_hash.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ipda::net {
namespace {

// Cap on cells per axis: ~2*sqrt(N) keeps the table O(N) even when the
// bounding box spans thousands of range-lengths (e.g. RegularRing's
// nominal range of 1 m over a 2 km circle).
size_t AxisCap(size_t count) {
  const size_t cap = 2 * static_cast<size_t>(
                             std::ceil(std::sqrt(static_cast<double>(
                                 count == 0 ? 1 : count))));
  return std::max<size_t>(cap, 1);
}

}  // namespace

SpatialHash::SpatialHash(const double* xs, const double* ys, size_t count,
                         double cell_size) {
  IPDA_CHECK_GT(cell_size, 0.0);
  IPDA_CHECK_GT(count, 0u);
  double max_x = xs[0], max_y = ys[0];
  min_x_ = xs[0];
  min_y_ = ys[0];
  for (size_t i = 1; i < count; ++i) {
    min_x_ = std::min(min_x_, xs[i]);
    min_y_ = std::min(min_y_, ys[i]);
    max_x = std::max(max_x, xs[i]);
    max_y = std::max(max_y, ys[i]);
  }
  const size_t cap = AxisCap(count);
  const auto axis_cells = [cap, cell_size](double extent) {
    if (extent <= 0.0) return size_t{1};
    const double want = std::ceil(extent / cell_size);
    return std::min(cap, static_cast<size_t>(std::max(want, 1.0)));
  };
  nx_ = axis_cells(max_x - min_x_);
  ny_ = axis_cells(max_y - min_y_);
  // Effective cell edge (>= cell_size when the cap did not bite).
  const double cell_x =
      std::max((max_x - min_x_) / static_cast<double>(nx_), cell_size);
  const double cell_y =
      std::max((max_y - min_y_) / static_cast<double>(ny_), cell_size);
  inv_cell_x_ = 1.0 / cell_x;
  inv_cell_y_ = 1.0 / cell_y;
  // Two-pass binning with exact reserves: one realloc per occupied cell
  // instead of log(k) growth reallocations each.
  std::vector<uint32_t> home(count);
  std::vector<uint32_t> counts(nx_ * ny_, 0);
  for (size_t i = 0; i < count; ++i) {
    home[i] = static_cast<uint32_t>(CellOf(xs[i], ys[i]));
    ++counts[home[i]];
  }
  cells_.resize(nx_ * ny_);
  for (size_t c = 0; c < cells_.size(); ++c) cells_[c].reserve(counts[c]);
  for (size_t i = 0; i < count; ++i) {
    cells_[home[i]].push_back(static_cast<uint32_t>(i));
  }
}

size_t SpatialHash::ClampedX(double x) const {
  const double f = std::floor((x - min_x_) * inv_cell_x_);
  if (!(f > 0.0)) return 0;  // Also catches NaN.
  const size_t c = static_cast<size_t>(f);
  return std::min(c, nx_ - 1);
}

size_t SpatialHash::ClampedY(double y) const {
  const double f = std::floor((y - min_y_) * inv_cell_y_);
  if (!(f > 0.0)) return 0;
  const size_t c = static_cast<size_t>(f);
  return std::min(c, ny_ - 1);
}

void SpatialHash::Move(uint32_t id, Point2D from, Point2D to) {
  const size_t old_cell = CellOf(from.x, from.y);
  const size_t new_cell = CellOf(to.x, to.y);
  if (old_cell == new_cell) return;
  std::vector<uint32_t>& old_bucket = cells_[old_cell];
  const auto it = std::find(old_bucket.begin(), old_bucket.end(), id);
  IPDA_DCHECK(it != old_bucket.end());
  old_bucket.erase(it);
  cells_[new_cell].push_back(id);
}

void SpatialHash::CellCandidates(size_t c, double radius, const double* xs,
                                 const double* ys,
                                 std::vector<uint32_t>& out) const {
  const std::vector<uint32_t>& members = cells_[c];
  if (members.empty()) return;
  // Bound the members' true coordinates rather than the cell's nominal
  // box: border cells hold clamped outliers whose positions lie outside
  // it, and ClampedX/Y are monotone, so [min-r, max+r] through the same
  // lookup covers every member's per-point block.
  double lo_x = xs[members[0]], hi_x = lo_x;
  double lo_y = ys[members[0]], hi_y = lo_y;
  for (uint32_t id : members) {
    lo_x = std::min(lo_x, xs[id]);
    hi_x = std::max(hi_x, xs[id]);
    lo_y = std::min(lo_y, ys[id]);
    hi_y = std::max(hi_y, ys[id]);
  }
  const size_t cx_lo = ClampedX(lo_x - radius);
  const size_t cx_hi = ClampedX(hi_x + radius);
  const size_t cy_lo = ClampedY(lo_y - radius);
  const size_t cy_hi = ClampedY(hi_y + radius);
  for (size_t cy = cy_lo; cy <= cy_hi; ++cy) {
    for (size_t cx = cx_lo; cx <= cx_hi; ++cx) {
      const std::vector<uint32_t>& bucket = cells_[cy * nx_ + cx];
      out.insert(out.end(), bucket.begin(), bucket.end());
    }
  }
}

}  // namespace ipda::net
