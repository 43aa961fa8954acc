// The O(N²) all-pairs unit-disk adjacency: the referee that the spatial-
// hash build (net::Topology::Build) must equal exactly. The spatial-hash
// property suite (tests/net_spatial_hash_test.cc) checks Build against it,
// and city_scale times it for the build speedup; the simulator never
// calls it.

#ifndef IPDA_BENCH_BRUTE_FORCE_TOPOLOGY_H_
#define IPDA_BENCH_BRUTE_FORCE_TOPOLOGY_H_

#include <vector>

#include "net/geometry.h"
#include "net/topology.h"

namespace ipda::bench {

// Node i's neighbors in ascending id order: every other node within
// `range`, by the same predicate as Topology::Build.
inline std::vector<std::vector<net::NodeId>> BruteForceAdjacency(
    const std::vector<net::Point2D>& positions, double range) {
  const size_t n = positions.size();
  std::vector<std::vector<net::NodeId>> adjacency(n);
  const double range_sq = range * range;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (net::DistanceSquared(positions[i], positions[j]) <= range_sq) {
        adjacency[i].push_back(static_cast<net::NodeId>(j));
        adjacency[j].push_back(static_cast<net::NodeId>(i));
      }
    }
  }
  return adjacency;
}

}  // namespace ipda::bench

#endif  // IPDA_BENCH_BRUTE_FORCE_TOPOLOGY_H_
