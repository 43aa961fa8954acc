// One-call protocol rounds: deployment → network → protocol → outcome.
// Every Run* helper (and each shard of RunShardedIpda) goes through one
// lifecycle in runner.cc — execution guards, crypto baseline, MAC
// widening, fault and churn arming, interrupt mapping, truth and metrics
// — so TAG, SMART, CPDA, KIPDA and iPDA are compared under the identical
// setup the paper's §IV evaluation assumes. A protocol supplies only its
// construction, its hooks and the fields of its result.

#ifndef IPDA_AGG_RUNNER_H_
#define IPDA_AGG_RUNNER_H_

#include <functional>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/cpda/cpda_protocol.h"
#include "agg/ipda/protocol.h"
#include "agg/kipda/kipda_protocol.h"
#include "agg/reading.h"
#include "agg/smart/smart_protocol.h"
#include "agg/tag/tag_protocol.h"
#include "fault/churn_plan.h"
#include "fault/fault_plan.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/cancel.h"
#include "util/result.h"

namespace ipda::agg {

// Per-run execution guards, wired into the run's scheduler. Both default
// off, so a plain RunConfig behaves exactly as before; when a guard
// trips, the Run* helper returns Unavailable instead of a result (the
// run's state is consistent but incomplete — discard it).
struct RunControl {
  // Cooperative cancellation (watchdog deadline, drain). Must outlive
  // the run. Null = never cancelled.
  const sim::CancelToken* cancel = nullptr;
  // Max scheduler events for the run's simulator; 0 = unlimited. A
  // deterministic stand-in for a wall-clock deadline: the same config
  // and seed trip it at exactly the same event, on every machine.
  uint64_t event_budget = 0;
};

struct RunConfig {
  net::DeploymentConfig deployment;  // Paper default: 400x400 m.
  double range = 50.0;               // Paper: 50 m transmission range.
  net::PhyConfig phy;                // Paper: 1 Mbps.
  net::MacConfig mac;
  uint64_t seed = 1;
  // Deterministic fault schedule armed against the run's network before
  // the protocol starts; an empty plan injects nothing. The same
  // (seed, faults) pair reproduces the same crashes/losses event for
  // event, for every protocol under comparison.
  fault::FaultPlan faults;
  // Deterministic mid-round topology churn (joins, leaves, mobility),
  // armed like `faults`. Only iPDA has churn hooks: every other Run*
  // helper rejects a non-empty plan with InvalidArgument rather than run
  // a churn-free round under a churn label. For iPDA to react (repair or
  // rebuild the trees) set IpdaConfig::churn_response as well — an empty
  // plan mutates nothing.
  fault::ChurnPlan churn;
  RunControl control;
  // Optional prebuilt graph (non-owning; must outlive the run). When set,
  // BuildRunTopology copies it instead of re-deploying and re-linking, so
  // a caller comparing several protocols on the SAME network pays for one
  // build instead of one per protocol. The caller owns keeping it
  // consistent with `deployment`/`range`/`seed`.
  const net::Topology* topology = nullptr;
};

// Deterministic topology for a RunConfig (same seed → same deployment).
// Honors config.topology when set (see its comment).
util::Result<net::Topology> BuildRunTopology(const RunConfig& config);

// collected[0] / truth[0]; the paper's accuracy metric ("ratio of the
// collected sum to the real sum", §IV-B-3). 1.0 = no data loss.
double AccuracyRatio(const Vector& collected, const Vector& truth);

// Ground-truth accumulator: every sensor's contribution summed (node 0,
// the base station, senses nothing).
Vector TrueAccumulator(const AggregateFunction& function,
                       const std::vector<double>& readings);

// One round's outcome; `Stats` is the protocol's own statistics.
template <typename Stats>
struct RunResult {
  Stats stats;
  Vector true_acc;            // Ground-truth total over all sensors.
  net::NodeCounters traffic;  // Network-wide totals.
  obs::Snapshot metrics;      // Full registry snapshot (DESIGN.md §11).
  double average_degree = 0.0;
  double accuracy = 0.0;      // Collected total vs truth.
  double result = 0.0;        // Finalized base-station answer.
};

using TagRunResult = RunResult<TagStats>;
using SmartRunResult = RunResult<SmartStats>;
using CpdaRunResult = RunResult<CpdaStats>;
// KIPDA's truth is the true extreme, carried as true_acc[0]; accuracy is
// result / true extreme.
using KipdaRunResult = RunResult<KipdaStats>;

struct IpdaRunResult : RunResult<IpdaStats> {
  // `metrics` includes the round's phase spans; `accuracy` is the agreed
  // (mean) total vs truth and `result` is valid when accepted.
  double accuracy_red = 0.0;   // Red-tree total vs truth.
  double accuracy_blue = 0.0;  // Blue-tree total vs truth.
};

util::Result<TagRunResult> RunTag(const RunConfig& config,
                                  const AggregateFunction& function,
                                  const SensorField& field,
                                  const TagConfig& tag_config = {});

// SMART baseline (privacy, single tree, no integrity).
util::Result<SmartRunResult> RunSmart(
    const RunConfig& config, const AggregateFunction& function,
    const SensorField& field, const SmartConfig& smart_config = {},
    SmartProtocol::SliceObserver slice_observer = nullptr);

// CPDA baseline (cluster-based privacy, single tree, no integrity).
util::Result<CpdaRunResult> RunCpda(const RunConfig& config,
                                    const AggregateFunction& function,
                                    const SensorField& field,
                                    const CpdaConfig& cpda_config = {});

// KIPDA baseline (exact MAX/MIN over camouflaged messages, no crypto).
// Readings must lie in [value_floor, value_ceiling].
util::Result<KipdaRunResult> RunKipda(const RunConfig& config,
                                      const SensorField& field,
                                      const KipdaConfig& kipda_config = {});

// Optional per-run attack instrumentation.
struct IpdaRunHooks {
  IpdaProtocol::PollutionHook pollution;
  IpdaProtocol::SliceObserver slice_observer;
  std::vector<net::NodeId> excluded;
  // Externally provisioned link keys (key-management studies); null keeps
  // the protocol's own pairwise keying. Must outlive the run.
  std::vector<crypto::LinkCrypto>* link_crypto = nullptr;
  // Called once the round has finished, with the protocol (roles and
  // trees final) and the topology it ended on; e.g. for tree exports.
  std::function<void(const IpdaProtocol&, const net::Topology&)> finished;
};

util::Result<IpdaRunResult> RunIpda(const RunConfig& config,
                                    const AggregateFunction& function,
                                    const SensorField& field,
                                    const IpdaConfig& ipda_config = {},
                                    const IpdaRunHooks& hooks = {});

}  // namespace ipda::agg

#endif  // IPDA_AGG_RUNNER_H_
