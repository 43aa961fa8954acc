#include "agg/ipda/config.h"

#include <cmath>

namespace ipda::agg {

util::Status ValidateIpdaConfig(const IpdaConfig& config) {
  if (config.slice_count == 0) {
    return util::InvalidArgumentError("slice_count (l) must be >= 1");
  }
  if (config.k < 2) {
    return util::InvalidArgumentError("k must be >= 2 (paper: k >= 2)");
  }
  if (!std::isfinite(config.threshold) || config.threshold < 0.0) {
    return util::InvalidArgumentError(
        "threshold Th must be finite and non-negative");
  }
  if (!std::isfinite(config.slice_range) || config.slice_range <= 0.0) {
    return util::InvalidArgumentError(
        "slice_range must be finite and positive");
  }
  if (config.phase1_window <= 0 || config.slice_window <= 0 ||
      config.slot <= 0) {
    return util::InvalidArgumentError("phase windows must be positive");
  }
  if (config.max_depth == 0) {
    return util::InvalidArgumentError("max_depth must be positive");
  }
  if (config.round_deadline < 0) {
    return util::InvalidArgumentError("round_deadline must be >= 0");
  }
  if (config.retarget_slices && config.slice_retarget_max == 0) {
    return util::InvalidArgumentError(
        "retarget_slices needs slice_retarget_max >= 1");
  }
  if (config.churn_response != ChurnResponse::kNone) {
    if (config.repair_attempt_budget == 0) {
      return util::InvalidArgumentError(
          "churn response needs repair_attempt_budget >= 1");
    }
    if (config.repair_backoff_base <= 0 ||
        config.repair_backoff_max < config.repair_backoff_base) {
      return util::InvalidArgumentError(
          "repair backoff needs 0 < base <= max");
    }
    if (config.rebuild_min_interval <= 0) {
      return util::InvalidArgumentError(
          "rebuild_min_interval must be positive");
    }
  }
  return util::OkStatus();
}

sim::SimTime IpdaSliceStart(const IpdaConfig& config) {
  return config.phase1_window;
}

sim::SimTime IpdaReportStart(const IpdaConfig& config) {
  // Margin after the slicing window so assembly sees every slice the MAC
  // will ever deliver.
  return IpdaSliceStart(config) + config.slice_window +
         sim::Milliseconds(200);
}

sim::SimTime IpdaDuration(const IpdaConfig& config) {
  return IpdaReportStart(config) +
         config.slot * static_cast<sim::SimTime>(config.max_depth + 1) +
         config.report_jitter_max + sim::Milliseconds(200);
}

sim::SimTime IpdaRoundDeadline(const IpdaConfig& config) {
  return config.round_deadline > 0 ? config.round_deadline
                                   : IpdaDuration(config);
}

}  // namespace ipda::agg
