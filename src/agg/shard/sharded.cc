#include "agg/shard/sharded.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/random.h"

namespace ipda::agg {
namespace {

// Shard simulators need distinct, reproducible seeds: same (run seed,
// shard) → same shard round, and no shard shares a stream with the
// single-sink run of the same seed.
constexpr uint64_t kShardSeedSalt = 0x5348415244534Bull;  // "SHARDSK"

// A shard's readings, indexed by its local node ids (0 = its sink).
class ShardField : public SensorField {
 public:
  explicit ShardField(std::vector<double> readings)
      : readings_(std::move(readings)) {}
  double ReadingFor(net::NodeId id, const net::Topology&) const override {
    return readings_[id];
  }

 private:
  std::vector<double> readings_;
};

}  // namespace

std::vector<net::Point2D> SinkPlacement(const net::Area& area,
                                        size_t sinks) {
  std::vector<net::Point2D> out;
  if (sinks == 0) return out;
  if (sinks == 1) {
    out.push_back(area.Center());
    return out;
  }
  // Smallest near-square grid with at least `sinks` cells; the first
  // `sinks` cell centers, row-major. Deterministic, spread over the area,
  // and stable as B grows within one row count.
  const size_t cols =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(sinks))));
  const size_t rows = (sinks + cols - 1) / cols;
  out.reserve(sinks);
  for (size_t r = 0; r < rows && out.size() < sinks; ++r) {
    for (size_t c = 0; c < cols && out.size() < sinks; ++c) {
      out.push_back(net::Point2D{
          area.width * (2.0 * static_cast<double>(c) + 1.0) /
              (2.0 * static_cast<double>(cols)),
          area.height * (2.0 * static_cast<double>(r) + 1.0) /
              (2.0 * static_cast<double>(rows))});
    }
  }
  return out;
}

std::vector<uint32_t> PartitionBySink(
    const net::Topology& topology,
    const std::vector<net::Point2D>& sinks) {
  IPDA_CHECK(!sinks.empty());
  std::vector<uint32_t> assignment(topology.node_count(), 0);
  for (net::NodeId id = 0; id < topology.node_count(); ++id) {
    const net::Point2D p = topology.position(id);
    double best = DistanceSquared(p, sinks[0]);
    uint32_t best_shard = 0;
    for (uint32_t s = 1; s < sinks.size(); ++s) {
      const double d = DistanceSquared(p, sinks[s]);
      if (d < best) {
        best = d;
        best_shard = s;
      }
    }
    assignment[id] = best_shard;
  }
  return assignment;
}

util::Result<ShardedRunResult> RunShardedIpda(
    const RunConfig& config, const AggregateFunction& function,
    const SensorField& field, const IpdaConfig& ipda_config,
    const ShardedConfig& sharded_config) {
  if (sharded_config.sinks == 0) {
    return util::InvalidArgumentError("sharded run needs at least one sink");
  }
  if (!config.faults.empty() || !config.churn.empty()) {
    return util::InvalidArgumentError(
        "fault/churn plans are not supported in sharded mode; model sink "
        "failure via ShardedConfig::crashed_sinks");
  }
  for (size_t s : sharded_config.crashed_sinks) {
    if (s >= sharded_config.sinks) {
      return util::InvalidArgumentError("crashed sink index out of range");
    }
  }

  // The global deployment — identical positions to the single-sink run of
  // this RunConfig, so sharded vs unsharded results compare run for run.
  IPDA_ASSIGN_OR_RETURN(net::Topology global, BuildRunTopology(config));
  const std::vector<double> readings = field.Sample(global);

  const std::vector<net::Point2D> sink_positions =
      SinkPlacement(config.deployment.area, sharded_config.sinks);
  const std::vector<uint32_t> assignment =
      PartitionBySink(global, sink_positions);

  // Sensor membership per shard. Global id 0 (the single-sink base
  // station's slot) senses nothing in either mode, so it joins no shard;
  // every actual sensor 1..N-1 joins exactly one — the shards partition
  // the sensor set, which is what makes SUM-like merges exact.
  std::vector<std::vector<net::NodeId>> members(sharded_config.sinks);
  for (net::NodeId id = 1; id < global.node_count(); ++id) {
    members[assignment[id]].push_back(id);
  }

  ShardedRunResult result;
  result.true_acc = TrueAccumulator(function, readings);
  BaseStationAccumulator merge(function.arity());
  bool any_rejected = false;
  double degree_weight = 0.0;
  double degree_sum = 0.0;

  for (size_t s = 0; s < sharded_config.sinks; ++s) {
    ShardOutcome outcome;
    outcome.shard = s;
    outcome.sensor_count = members[s].size();
    const bool crashed =
        std::find(sharded_config.crashed_sinks.begin(),
                  sharded_config.crashed_sinks.end(),
                  s) != sharded_config.crashed_sinks.end();
    if (crashed) {
      // The whole shard's data is lost, but the loss is contained: the
      // merge proceeds over the surviving shards.
      outcome.crashed = true;
      result.degraded = true;
      result.shards.push_back(std::move(outcome));
      continue;
    }

    // Local node space: id 0 is this shard's sink, ids 1..k map to the
    // shard's sensors in ascending global-id order.
    std::vector<net::Point2D> local_positions;
    local_positions.reserve(members[s].size() + 1);
    local_positions.push_back(sink_positions[s]);
    std::vector<double> local_readings;
    local_readings.reserve(members[s].size() + 1);
    local_readings.push_back(0.0);
    for (net::NodeId global_id : members[s]) {
      local_positions.push_back(global.position(global_id));
      local_readings.push_back(readings[global_id]);
    }

    IPDA_ASSIGN_OR_RETURN(
        const net::Topology topology,
        net::Topology::Build(std::move(local_positions), config.range));
    // The shard plays the single-sink round on its own deployment and
    // readings, under a salted seed.
    RunConfig shard_config = config;
    shard_config.topology = &topology;
    shard_config.seed =
        util::Mix64(util::Mix64(config.seed, kShardSeedSalt), s);
    auto run = RunIpda(shard_config, function,
                       ShardField(std::move(local_readings)), ipda_config);
    if (!run.ok()) {
      const util::Status status = run.status();
      return util::Status(status.code(), "shard " + std::to_string(s) +
                                             ": " + status.message());
    }

    outcome.stats = std::move(run->stats);
    outcome.traffic = run->traffic;
    outcome.average_degree = run->average_degree;
    outcome.metrics = std::move(run->metrics);
    merge.Add(TreeColor::kRed, outcome.stats.decision.acc_red);
    merge.Add(TreeColor::kBlue, outcome.stats.decision.acc_blue);
    any_rejected |= !outcome.stats.decision.accepted;
    result.degraded |= outcome.stats.degraded;
    result.traffic += outcome.traffic;
    const double weight = static_cast<double>(topology.node_count());
    degree_sum += outcome.average_degree * weight;
    degree_weight += weight;
    result.shards.push_back(std::move(outcome));
  }

  result.decision = merge.Decide(ipda_config.threshold);
  // A polluted shard must not hide behind cross-shard cancellation: the
  // merged totals could agree even though one shard's red/blue pair did
  // not. Every live shard's own Th verdict gates acceptance too.
  if (any_rejected) result.decision.accepted = false;
  result.average_degree =
      degree_weight > 0.0 ? degree_sum / degree_weight : 0.0;
  result.accuracy_red =
      AccuracyRatio(result.decision.acc_red, result.true_acc);
  result.accuracy_blue =
      AccuracyRatio(result.decision.acc_blue, result.true_acc);
  result.accuracy = AccuracyRatio(result.decision.Agreed(), result.true_acc);
  result.result = function.Finalize(result.decision.Agreed());
  return result;
}

}  // namespace ipda::agg
