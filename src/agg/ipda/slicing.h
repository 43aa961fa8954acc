// iPDA Phase II: data slicing and assembling (§III-C).
//
// A node hides its contribution vector by splitting it into l random
// slices per tree: l-1 slices are uniform noise, the last makes the sum
// exact, so any proper subset of slices is statistically independent of
// the reading. Aggregators keep one slice local (d_ii); everything else is
// link-encrypted and unicast to chosen neighbor aggregators.

#ifndef IPDA_AGG_IPDA_SLICING_H_
#define IPDA_AGG_IPDA_SLICING_H_

#include <vector>

#include "agg/aggregate_function.h"
#include "agg/ipda/messages.h"
#include "net/topology.h"
#include "util/random.h"
#include "util/result.h"

namespace ipda::agg {

// Splits `value` into `l` slices that sum componentwise to `value`. The
// first l-1 slices are uniform in [-range, range] per component. `slices`
// is overwritten and its vectors' capacity reused, so a caller that keeps
// one slice set for every node slices without allocating.
void SliceVector(const Vector& value, uint32_t l, double range,
                 util::Rng& rng, std::vector<Vector>& slices);

// Where one node's slices go for a single tree color.
struct ColorPlan {
  std::vector<net::NodeId> targets;  // Remote aggregators, one slice each.
  bool keep_local = false;           // One slice stays at the node (d_ii).
};

// Both trees' plans; total transmissions = red.targets + blue.targets
// (2l for leaves, 2l-1 for aggregators — §III-C-1).
struct SlicePlan {
  ColorPlan red;
  ColorPlan blue;
  size_t TransmissionCount() const {
    return red.targets.size() + blue.targets.size();
  }
};

// Chooses slice targets per §III-C-1 into `plan` (overwritten, capacity
// reused). `red_candidates`/`blue_candidates` are the neighbor aggregators
// the node may send to (already filtered for key availability by the
// caller); they must not contain the node itself.
// Fails with FailedPrecondition when the neighborhood cannot absorb l
// slices per tree — the node then sits out this round (loss factor (b)).
util::Status PlanSlices(NodeRole role, uint32_t l,
                        const std::vector<net::NodeId>& red_candidates,
                        const std::vector<net::NodeId>& blue_candidates,
                        util::Rng& rng, SlicePlan& plan);

}  // namespace ipda::agg

#endif  // IPDA_AGG_IPDA_SLICING_H_
