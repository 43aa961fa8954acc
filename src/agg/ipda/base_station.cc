#include "agg/ipda/base_station.h"

#include <cmath>

#include "util/check.h"

namespace ipda::agg {

Vector IntegrityDecision::Agreed() const {
  Vector out(acc_red.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = (acc_red[i] + acc_blue[i]) / 2.0;
  }
  return out;
}

BaseStationAccumulator::BaseStationAccumulator(size_t arity)
    : red_(arity, 0.0), blue_(arity, 0.0) {}

void BaseStationAccumulator::Add(TreeColor color, const Vector& partial) {
  IPDA_CHECK(color == TreeColor::kRed || color == TreeColor::kBlue);
  AddInto(color == TreeColor::kRed ? red_ : blue_, partial);
}

const Vector& BaseStationAccumulator::acc(TreeColor color) const {
  IPDA_CHECK(color == TreeColor::kRed || color == TreeColor::kBlue);
  return color == TreeColor::kRed ? red_ : blue_;
}

IntegrityDecision BaseStationAccumulator::Decide(double threshold) const {
  IntegrityDecision decision;
  decision.acc_red = red_;
  decision.acc_blue = blue_;
  decision.threshold = threshold;
  // Accept only when every component passes the test, so a NaN total
  // (or inf - inf) fails it instead of vanishing inside a max. A NaN
  // difference is reported as NaN.
  double diff = 0.0;
  bool within = true;
  for (size_t i = 0; i < red_.size(); ++i) {
    const double d = std::fabs(red_[i] - blue_[i]);
    within = within && d <= threshold;
    if (std::isnan(d) || d > diff) diff = d;
  }
  decision.max_component_diff = diff;
  decision.accepted = within;
  return decision;
}

void BaseStationAccumulator::Reset() {
  red_.assign(red_.size(), 0.0);
  blue_.assign(blue_.size(), 0.0);
}

}  // namespace ipda::agg
