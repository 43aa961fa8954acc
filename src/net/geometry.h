// 2-D geometry primitives for node placement.

#ifndef IPDA_NET_GEOMETRY_H_
#define IPDA_NET_GEOMETRY_H_

#include <cmath>

namespace ipda::net {

struct Point2D {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point2D& a, const Point2D& b) {
    return a.x == b.x && a.y == b.y;
  }
};

// Inline: the channel computes one per reception.
inline double DistanceSquared(const Point2D& a, const Point2D& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

inline double Distance(const Point2D& a, const Point2D& b) {
  return std::sqrt(DistanceSquared(a, b));
}

// Axis-aligned rectangle with corner at the origin.
struct Area {
  double width = 0.0;
  double height = 0.0;

  bool Contains(const Point2D& p) const {
    return p.x >= 0.0 && p.x <= width && p.y >= 0.0 && p.y <= height;
  }
  Point2D Center() const { return Point2D{width / 2.0, height / 2.0}; }
};

}  // namespace ipda::net

#endif  // IPDA_NET_GEOMETRY_H_
