#include "agg/ipda/slicing.h"

#include "util/check.h"

namespace ipda::agg {
namespace {

// The sampled candidate indices are written into `out` and then replaced
// by the candidates they name.
void PickTargets(const std::vector<net::NodeId>& pool, size_t count,
                 util::Rng& rng, std::vector<net::NodeId>& out) {
  rng.SampleWithoutReplacement(pool.size(), count, out);
  for (net::NodeId& target : out) target = pool[target];
}

}  // namespace

void SliceVector(const Vector& value, uint32_t l, double range,
                 util::Rng& rng, std::vector<Vector>& slices) {
  IPDA_CHECK_GE(l, 1u);
  IPDA_CHECK_GT(range, 0.0);
  slices.resize(l);
  Vector& remainder = slices[l - 1];
  remainder = value;
  for (uint32_t i = 0; i + 1 < l; ++i) {
    Vector& slice = slices[i];
    slice.resize(value.size());
    for (size_t c = 0; c < value.size(); ++c) {
      slice[c] = rng.UniformDouble(-range, range);
      remainder[c] -= slice[c];
    }
  }
}

util::Status PlanSlices(NodeRole role, uint32_t l,
                        const std::vector<net::NodeId>& red_candidates,
                        const std::vector<net::NodeId>& blue_candidates,
                        util::Rng& rng, SlicePlan& plan) {
  IPDA_CHECK_GE(l, 1u);
  size_t red_remote = l;
  size_t blue_remote = l;
  plan.red.keep_local = false;
  plan.blue.keep_local = false;
  switch (role) {
    case NodeRole::kRedAggregator:
      plan.red.keep_local = true;
      red_remote = l - 1;
      break;
    case NodeRole::kBlueAggregator:
      plan.blue.keep_local = true;
      blue_remote = l - 1;
      break;
    case NodeRole::kLeaf:
      break;
    default:
      return util::FailedPreconditionError(
          "only decided sensor roles can slice");
  }
  if (red_candidates.size() < red_remote) {
    return util::FailedPreconditionError(
        "not enough red aggregator neighbors for l slices");
  }
  if (blue_candidates.size() < blue_remote) {
    return util::FailedPreconditionError(
        "not enough blue aggregator neighbors for l slices");
  }
  PickTargets(red_candidates, red_remote, rng, plan.red.targets);
  PickTargets(blue_candidates, blue_remote, rng, plan.blue.targets);
  return util::OkStatus();
}

}  // namespace ipda::agg
