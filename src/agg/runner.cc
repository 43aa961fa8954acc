#include "agg/runner.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "agg/run_metrics.h"
#include "crypto/stats.h"
#include "fault/churn_injector.h"
#include "fault/fault_injector.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace ipda::agg {
namespace {

// A deployed MAC tunes its ACK timeout to the link's latency budget. The
// fault plan may delay the data frame by up to jitter_max and the ACK by
// up to jitter_max again, so widen the ARQ window accordingly: a dead-peer
// verdict must mean loss or crash, never delay alone (a jittered-but-
// delivered frame that times out would be re-sent via retarget/failover
// and absorbed twice, inflating one tree).
net::MacConfig RunMacConfig(const RunConfig& config) {
  net::MacConfig mac = config.mac;
  mac.ack_timeout += 2 * config.faults.link.jitter_max;
  return mac;
}

// Arms config.faults against the run's network. The injector is emplaced
// into caller-owned storage (it is non-movable and must outlive RunUntil).
util::Status ArmFaults(const RunConfig& config, sim::Simulator& simulator,
                       net::Network& network,
                       std::optional<fault::FaultInjector>& injector) {
  if (config.faults.empty()) return util::OkStatus();
  IPDA_RETURN_IF_ERROR(fault::ValidateFaultPlan(config.faults));
  injector.emplace(&simulator, &network.channel(), network.size(),
                   config.faults);
  injector->Arm();
  return util::OkStatus();
}

// Arms config.churn against the run's live topology, wiring the churn
// signals into the protocol (joins solicit tree admission, edge changes
// may trigger a rebuild flood). Must run before protocol.Start() so
// pending joiners are detached ahead of the Phase I flood.
util::Status ArmChurn(const RunConfig& config, sim::Simulator& simulator,
                      net::Network& network, sim::SimTime horizon,
                      std::optional<fault::ChurnInjector>& injector,
                      IpdaProtocol& protocol) {
  if (config.churn.empty()) return util::OkStatus();
  IPDA_RETURN_IF_ERROR(fault::ValidateChurnPlan(config.churn));
  injector.emplace(&simulator, &network.channel(),
                   network.mutable_topology(), config.churn,
                   config.deployment.area, horizon);
  injector->SetJoinListener(
      [&protocol](net::NodeId id) { protocol.OnChurnJoin(id); });
  injector->SetChangeListener([&protocol] { protocol.OnTopologyChange(); });
  injector->Arm();
  return util::OkStatus();
}

// Non-OK when the run's RunUntil stopped early on a tripped guard; the
// protocol's state is consistent but the round is incomplete, so the
// caller must get a failure, never a half-aggregated result.
util::Status InterruptStatus(const RunConfig& config,
                             const sim::Simulator& simulator) {
  switch (simulator.scheduler().interrupt_cause()) {
    case sim::Scheduler::InterruptCause::kNone:
      return util::OkStatus();
    case sim::Scheduler::InterruptCause::kCancel:
      return util::UnavailableError(
          "run cancelled (" +
          std::string(sim::CancelReasonName(
              config.control.cancel != nullptr
                  ? config.control.cancel->reason()
                  : sim::CancelReason::kExternal)) +
          ")");
    case sim::Scheduler::InterruptCause::kEventBudget:
      return util::UnavailableError(
          "run exceeded event budget (" +
          std::to_string(config.control.event_budget) + " events)");
  }
  return util::InternalError("unknown interrupt cause");
}

// Churn is armed only for protocols that can react to it.
template <typename Protocol>
constexpr bool kHasChurnHooks = requires(Protocol& p) {
  p.OnChurnJoin(net::NodeId{});
  p.OnTopologyChange();
};

// The one round lifecycle every Run* helper shares. `Round` is the
// protocol's side of it:
//   Round::Protocol               the protocol type;
//   Make(net::Network*)           constructs it on the run's network;
//   Prepare(Protocol&)            installs hooks after SetReadings;
//   Fill(protocol, simulator, readings, result)
//                                 truth, accuracy and any protocol metrics,
//                                 before the registry is snapshotted;
//   Finished(protocol, topology)  optional, sees the finished round.
// Finish() runs where the protocol has one.
template <typename Round, typename Result>
util::Result<Result> RunRound(const RunConfig& config,
                              const SensorField& field, const Round& round) {
  using Protocol = typename Round::Protocol;
  if (!kHasChurnHooks<Protocol> && !config.churn.empty()) {
    return util::InvalidArgumentError(
        "churn plans need a protocol with churn hooks (iPDA)");
  }
  IPDA_ASSIGN_OR_RETURN(net::Topology topology, BuildRunTopology(config));
  sim::Simulator simulator(config.seed);
  // The execution guards arm before any event runs.
  simulator.scheduler().SetCancelToken(config.control.cancel);
  simulator.scheduler().SetEventBudget(config.control.event_budget);
  const crypto::CryptoStats crypto_base = crypto::ThreadCryptoStats();
  net::Network network(&simulator, std::move(topology), config.phy,
                       RunMacConfig(config));
  Protocol protocol = round.Make(&network);
  std::optional<fault::FaultInjector> injector;
  IPDA_RETURN_IF_ERROR(ArmFaults(config, simulator, network, injector));
  // Readings are sampled before churn arms: positions are final by now
  // (the deployment is seed-determined), and detaching pending joiners
  // must not change who has a reading.
  const std::vector<double> readings = field.Sample(network.topology());
  std::optional<fault::ChurnInjector> churn;
  if constexpr (kHasChurnHooks<Protocol>) {
    IPDA_RETURN_IF_ERROR(ArmChurn(config, simulator, network,
                                  protocol.Duration(), churn, protocol));
  }
  protocol.SetReadings(readings);
  round.Prepare(protocol);
  protocol.Start();
  simulator.RunUntil(protocol.Duration());
  IPDA_RETURN_IF_ERROR(InterruptStatus(config, simulator));
  if constexpr (requires { protocol.Finish(); }) protocol.Finish();
  // Round boundary: fold any churn mutations back into flat CSR form so a
  // follow-on round (or the degree census below) runs on the hot path.
  network.mutable_topology()->Compact();
  if constexpr (requires { round.Finished(protocol, network.topology()); }) {
    round.Finished(protocol, network.topology());
  }

  Result result;
  result.stats = protocol.stats();
  result.traffic = network.counters().Totals();
  round.Fill(protocol, simulator, readings, result);
  // The same sim/net/crypto/pool instrument set for every protocol, plus
  // the nominal schedule length (RunUntil's deadline) that the energy
  // bench prices idle listening with.
  simulator.metrics().GetGauge("agg.round_duration_s")
      ->Set(sim::ToSeconds(protocol.Duration()));
  CollectRunMetrics(simulator, network, crypto_base,
                    injector.has_value() ? &*injector : nullptr,
                    churn.has_value() ? &*churn : nullptr);
  result.metrics = obs::TakeSnapshot(simulator.metrics(), &simulator.trace());
  result.average_degree = network.topology().AverageDegree();
  result.result = protocol.FinalizedResult();
  return result;
}

// The protocol side of a round for TAG, SMART, CPDA and iPDA: each is
// built from (network, function, config) and answers an additive
// aggregate. The baselines' base station collects one accumulator.
template <typename P, typename Config>
struct AdditiveRound {
  using Protocol = P;
  const AggregateFunction& function;
  const Config& config;
  Protocol Make(net::Network* network) const {
    return Protocol(network, &function, config);
  }
  void Prepare(Protocol&) const {}
  template <typename Result>
  void Fill(const Protocol&, sim::Simulator&,
            const std::vector<double>& readings, Result& result) const {
    result.true_acc = TrueAccumulator(function, readings);
    result.accuracy = AccuracyRatio(result.stats.collected, result.true_acc);
  }
};

using TagRound = AdditiveRound<TagProtocol, TagConfig>;
using CpdaRound = AdditiveRound<CpdaProtocol, CpdaConfig>;

struct SmartRound : AdditiveRound<SmartProtocol, SmartConfig> {
  SmartProtocol::SliceObserver& slice_observer;
  void Prepare(Protocol& protocol) const {
    if (slice_observer) protocol.SetSliceObserver(std::move(slice_observer));
  }
};

struct KipdaRound {
  using Protocol = KipdaProtocol;
  const KipdaConfig& config;
  Protocol Make(net::Network* network) const {
    return Protocol(network, config);
  }
  void Prepare(Protocol&) const {}
  void Fill(const Protocol& protocol, sim::Simulator&,
            const std::vector<double>& readings,
            KipdaRunResult& result) const {
    double extreme = config.maximize ? config.value_floor
                                     : config.value_ceiling;
    for (size_t id = 1; id < readings.size(); ++id) {
      extreme = config.maximize ? std::max(extreme, readings[id])
                                : std::min(extreme, readings[id]);
    }
    result.true_acc = {extreme};
    result.accuracy =
        AccuracyRatio({protocol.FinalizedResult()}, result.true_acc);
  }
};

struct IpdaRound : AdditiveRound<IpdaProtocol, IpdaConfig> {
  const IpdaRunHooks& hooks;
  void Prepare(Protocol& protocol) const {
    if (hooks.pollution) protocol.SetPollutionHook(hooks.pollution);
    if (hooks.slice_observer) protocol.SetSliceObserver(hooks.slice_observer);
    if (!hooks.excluded.empty()) protocol.SetExcludedNodes(hooks.excluded);
    if (hooks.link_crypto != nullptr) {
      protocol.SetLinkCrypto(hooks.link_crypto);
    }
  }
  void Finished(const Protocol& protocol,
                const net::Topology& topology) const {
    if (hooks.finished) hooks.finished(protocol, topology);
  }
  // Accuracy per tree and for the agreed total, plus the iPDA metrics.
  void Fill(const Protocol& protocol, sim::Simulator& simulator,
            const std::vector<double>& readings,
            IpdaRunResult& result) const {
    result.true_acc = TrueAccumulator(function, readings);
    CollectIpdaMetrics(simulator, result.stats, protocol.config());
    const IntegrityDecision& decision = result.stats.decision;
    result.accuracy_red = AccuracyRatio(decision.acc_red, result.true_acc);
    result.accuracy_blue = AccuracyRatio(decision.acc_blue, result.true_acc);
    result.accuracy = AccuracyRatio(decision.Agreed(), result.true_acc);
  }
};

}  // namespace

util::Result<net::Topology> BuildRunTopology(const RunConfig& config) {
  if (config.topology != nullptr) return *config.topology;
  util::Rng rng = util::Rng(config.seed).Fork("deployment");
  return net::Topology::RandomGeometric(config.deployment, config.range,
                                        rng);
}

double AccuracyRatio(const Vector& collected, const Vector& truth) {
  if (truth.empty() || truth[0] == 0.0) return 0.0;
  return collected[0] / truth[0];
}

Vector TrueAccumulator(const AggregateFunction& function,
                       const std::vector<double>& readings) {
  Vector total(function.arity(), 0.0);
  Vector contribution;
  for (size_t id = 1; id < readings.size(); ++id) {
    function.ContributionInto(readings[id], contribution);
    AddInto(total, contribution);
  }
  return total;
}

util::Result<TagRunResult> RunTag(const RunConfig& config,
                                  const AggregateFunction& function,
                                  const SensorField& field,
                                  const TagConfig& tag_config) {
  return RunRound<TagRound, TagRunResult>(config, field,
                                          TagRound{function, tag_config});
}

util::Result<SmartRunResult> RunSmart(
    const RunConfig& config, const AggregateFunction& function,
    const SensorField& field, const SmartConfig& smart_config,
    SmartProtocol::SliceObserver slice_observer) {
  return RunRound<SmartRound, SmartRunResult>(
      config, field, SmartRound{{function, smart_config}, slice_observer});
}

util::Result<CpdaRunResult> RunCpda(const RunConfig& config,
                                    const AggregateFunction& function,
                                    const SensorField& field,
                                    const CpdaConfig& cpda_config) {
  return RunRound<CpdaRound, CpdaRunResult>(config, field,
                                            CpdaRound{function, cpda_config});
}

util::Result<KipdaRunResult> RunKipda(const RunConfig& config,
                                      const SensorField& field,
                                      const KipdaConfig& kipda_config) {
  return RunRound<KipdaRound, KipdaRunResult>(config, field,
                                              KipdaRound{kipda_config});
}

util::Result<IpdaRunResult> RunIpda(const RunConfig& config,
                                    const AggregateFunction& function,
                                    const SensorField& field,
                                    const IpdaConfig& ipda_config,
                                    const IpdaRunHooks& hooks) {
  return RunRound<IpdaRound, IpdaRunResult>(
      config, field, IpdaRound{{function, ipda_config}, hooks});
}

}  // namespace ipda::agg
