// iPDA base-station logic: per-tree accumulation and the redundancy-based
// integrity decision |S_red − S_blue| ≤ Th (§III-D, §IV-A-4).

#ifndef IPDA_AGG_IPDA_BASE_STATION_H_
#define IPDA_AGG_IPDA_BASE_STATION_H_

#include "agg/aggregate_function.h"
#include "agg/ipda/messages.h"

namespace ipda::agg {

struct IntegrityDecision {
  bool accepted = false;
  Vector acc_red;    // S_red, additive components.
  Vector acc_blue;   // S_blue.
  // max_i |S_red[i] − S_blue[i]|; NaN when any component's is.
  double max_component_diff = 0.0;
  double threshold = 0.0;

  // The value the base station reports when accepted: the red/blue mean,
  // which equals either tree's sum in the loss-free case.
  Vector Agreed() const;
};

class BaseStationAccumulator {
 public:
  explicit BaseStationAccumulator(size_t arity);

  // Folds a partial (from a child's AGGREGATE, or a slice addressed to the
  // base station itself) into the given tree's total.
  void Add(TreeColor color, const Vector& partial);

  const Vector& acc(TreeColor color) const;

  // Applies the Th test to every component. Pollution on either tree —
  // and only on one, since the trees are node-disjoint — makes the totals
  // disagree and the result is rejected; so does a non-finite total.
  IntegrityDecision Decide(double threshold) const;

  void Reset();

 private:
  Vector red_;
  Vector blue_;
};

}  // namespace ipda::agg

#endif  // IPDA_AGG_IPDA_BASE_STATION_H_
