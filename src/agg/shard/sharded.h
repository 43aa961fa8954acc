// Multi-sink sharded iPDA aggregation (DESIGN.md §13).
//
// At city scale a single base station is the bottleneck twice over: the
// tree diameter outgrows the fixed phase schedule (accuracy collapses once
// depth exceeds max_depth / the Phase I window), and every frame funnels
// through one radio neighborhood. Sharding deploys B sinks over the same
// area, assigns each sensor to its nearest sink (Voronoi), runs one
// independent iPDA round per shard — disjoint red/blue trees, slicing,
// per-shard Th check — and merges the per-shard tree totals at a top-level
// sink with the same |S_red − S_blue| ≤ Th integrity decision. SUM-like
// aggregates merge exactly: the shards partition the sensor set, so the
// summed red (resp. blue) totals equal the single-sink tree totals in the
// loss-free case.
//
// The global deployment is byte-identical to the single-sink run with the
// same RunConfig (same "deployment" rng fork), so sharded and unsharded
// results are comparable run for run. Sensor node ids 1..N-1 keep their
// global meaning; the original base-station slot (global id 0) senses
// nothing in either mode. Each shard simulates an independent radio
// domain — spatially, inter-shard interference is a border effect this
// model ignores in exchange for embarrassingly parallel shards.

#ifndef IPDA_AGG_SHARD_SHARDED_H_
#define IPDA_AGG_SHARD_SHARDED_H_

#include <vector>

#include "agg/runner.h"

namespace ipda::agg {

struct ShardedConfig {
  size_t sinks = 2;  // B: base stations deployed over the area.
  // Shard indices whose sink crash-fails for the whole round: the shard is
  // not simulated and its sensors' contributions are lost. Degradation is
  // contained — other shards still merge (the availability argument for
  // multiple sinks).
  std::vector<size_t> crashed_sinks;
};

// One shard's round, in global terms.
struct ShardOutcome {
  size_t shard = 0;
  size_t sensor_count = 0;  // Sensors assigned to this sink.
  bool crashed = false;     // Sink was down; stats/traffic are zero.
  IpdaStats stats;
  net::NodeCounters traffic;
  double average_degree = 0.0;
  obs::Snapshot metrics;  // The shard round's own registry snapshot.
};

struct ShardedRunResult {
  std::vector<ShardOutcome> shards;
  Vector true_acc;             // Ground truth over ALL sensors (global).
  net::NodeCounters traffic;   // Summed over live shards.
  // Top-level merge: per-shard red (resp. blue) totals summed, then the
  // usual Th test. Additionally rejected if any live shard's own decision
  // rejected (cross-shard cancellation must not mask a polluted shard).
  IntegrityDecision decision;
  double average_degree = 0.0;  // Sensor-weighted mean over live shards.
  double accuracy_red = 0.0;
  double accuracy_blue = 0.0;
  double accuracy = 0.0;
  double result = 0.0;
  bool degraded = false;  // Any shard crashed or finished degraded.
};

// Deterministic sink placement: cell centers of the smallest near-square
// grid covering `sinks` cells over the area, row-major. One sink lands at
// the area center when sinks == 1.
std::vector<net::Point2D> SinkPlacement(const net::Area& area, size_t sinks);

// Nearest-sink (Voronoi) shard index for every node of `topology`.
// Index 0 (the global base-station slot) is assigned like any node but
// carries no reading. Ties break toward the lower shard index.
std::vector<uint32_t> PartitionBySink(
    const net::Topology& topology, const std::vector<net::Point2D>& sinks);

// Runs one sharded iPDA round: each live shard plays the single-sink
// RunIpda round on its own sink-rooted deployment and readings, under a
// seed salted with the shard index (an interrupted shard's error names
// it). `config.faults` and `config.churn` must be empty (per-shard fault
// schedules are future work); use ShardedConfig::crashed_sinks for the
// sink-failure story.
util::Result<ShardedRunResult> RunShardedIpda(
    const RunConfig& config, const AggregateFunction& function,
    const SensorField& field, const IpdaConfig& ipda_config = {},
    const ShardedConfig& sharded_config = {});

}  // namespace ipda::agg

#endif  // IPDA_AGG_SHARD_SHARDED_H_
