// City-scale sweep (DESIGN.md §13): N x sinks at the paper's density
// (side = 400·√(N/400)): spatial-hash vs O(N²) build time (once per N;
// ≥20x flagged at N=10k), round wall-clock (mean, min and max per cell),
// bytes, accuracy, acceptance. One untimed warm-up round runs before the
// sweep. Timings are journaled (a resume replays them);
// IPDA_BENCH_MAX_NODES caps N.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/shard/sharded.h"
#include "bench_common.h"
#include "brute_force_topology.h"
#include "net/deployment.h"
#include "net/topology.h"
#include "util/proc.h"
#include "util/random.h"

namespace ipda::bench {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  using Ms = std::chrono::duration<double, std::milli>;
  return Ms(std::chrono::steady_clock::now() - start).count();
}

// Min-of-3 spatial vs brute-force build times (runs execute in parallel;
// the minimum is the contention-free estimate the speedup is about).
util::Status TimeBuilds(const agg::RunConfig& config, uint64_t seed,
                        Record& record) {
  util::Rng rng(util::Mix64(seed, 0xB117D));
  IPDA_ASSIGN_OR_RETURN(const std::vector<net::Point2D> positions,
                        net::UniformDeployment(config.deployment, rng));
  double best_ms[2] = {HUGE_VAL, HUGE_VAL};  // Spatial, brute.
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    IPDA_ASSIGN_OR_RETURN(const net::Topology topology,
                          net::Topology::Build(positions, config.range));
    best_ms[0] = std::min(best_ms[0], MsSince(t0));
    t0 = std::chrono::steady_clock::now();
    const std::vector<std::vector<net::NodeId>> brute =
        BruteForceAdjacency(positions, config.range);
    best_ms[1] = std::min(best_ms[1], MsSince(t0));
    for (net::NodeId id = 0; id < brute.size(); ++id) {
      const net::NeighborSpan spatial = topology.neighbors(id);
      if (!std::equal(spatial.begin(), spatial.end(), brute[id].begin(),
                      brute[id].end())) {
        return util::InternalError("spatial/brute adjacency mismatch");
      }
    }
  }
  record.Set("build_spatial_ms", best_ms[0]).Set("build_brute_ms", best_ms[1]);
  return util::OkStatus();
}

// The paper's §IV setup at its density: side = 400·√(N/400).
agg::RunConfig CityConfig(size_t nodes, uint64_t seed) {
  agg::RunConfig config = PaperRunConfig(nodes, seed);
  const double side = 400.0 * std::sqrt(nodes / 400.0);
  config.deployment.area = net::Area{side, side};
  return config;
}

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  const size_t runs = RunsPerPoint(/*default_runs=*/3);
  const uint64_t max_nodes = EnvCount("IPDA_BENCH_MAX_NODES", 25000, 1000);
  auto function = agg::MakeSum();
  auto field = agg::MakeUniformField(15.0, 30.0, 42);

  SweepSpec spec{"city_scale", 0xC17C5, "", {}, true};
  std::vector<std::pair<size_t, size_t>> grid;  // (nodes, sinks)
  for (size_t nodes : {1000, 5000, 10000, 25000}) {
    for (size_t sinks : {1, 4, 8}) {
      if (nodes > max_nodes) continue;
      spec.cells.push_back({"n=" + std::to_string(nodes) + ",sinks=" +
                                std::to_string(sinks), runs, nullptr, ""});
      grid.emplace_back(nodes, sinks);
    }
  }

  // The first cell's rounds would otherwise also pay for cold caches and
  // first-touch page faults; one untimed round of the first cell's
  // deployment, outside the journaled sweep, absorbs that.
  (void)agg::RunIpda(CityConfig(grid.front().first, spec.sweep_seed),
                     *function, *field, PaperIpdaConfig(2));

  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [&](const RunContext& ctx) -> util::Result<Record> {
        const auto [nodes, sinks] = grid[ctx.cell];
        agg::RunConfig config = CityConfig(nodes, ctx.seed);
        config.control = ctx.control;
        Record record;
        if (ctx.run == 0 && sinks == 1) {
          IPDA_RETURN_IF_ERROR(TimeBuilds(config, ctx.seed, record));
        }
        const agg::IpdaConfig proto = PaperIpdaConfig(2);
        const auto round_start = std::chrono::steady_clock::now();
        const auto finish = [&](const auto& run, const auto& outcome) {
          return record.Set("accuracy", run.accuracy)
              .Set("accepted", outcome.decision.accepted)
              .Set("degraded", outcome.degraded)
              .Set("bytes", static_cast<double>(run.traffic.bytes_sent))
              .Set("round_ms", MsSince(round_start));
        };
        if (sinks <= 1) {
          IPDA_ASSIGN_OR_RETURN(const agg::IpdaRunResult run,
                                agg::RunIpda(config, *function, *field, proto));
          return finish(run, run.stats);
        }
        IPDA_ASSIGN_OR_RETURN(
            const agg::ShardedRunResult run,
            agg::RunShardedIpda(config, *function, *field, proto,
                                {.sinks = sinks, .crashed_sinks = {}}));
        return finish(run, run);
      });

  PrintHeader("city_scale",
              "city-scale scaling: spatial-hash build speedup, round "
              "wall-clock, and multi-sink sharded accuracy (DESIGN.md §13)");
  std::printf("{\n  \"experiment\": \"city_scale\",\n  \"runs_per_point\": "
              "%zu,\n  \"failed_runs\": %zu,\n  \"grid\": [\n",
              runs, result.failed_runs());
  double spatial_ms = 0.0, brute_ms = 0.0;  // Timed on (N, sinks=1, run 0).
  for (size_t cell = 0; cell < grid.size(); ++cell) {
    const auto [nodes, sinks] = grid[cell];
    const auto mean = [&](const char* field) {
      return result.Get(cell, field).summary.mean();
    };
    const stats::Summary& round_ms = result.Get(cell, "round_ms").summary;
    if (result.Get(cell, "build_brute_ms").count() > 0) {
      spatial_ms = mean("build_spatial_ms");
      brute_ms = mean("build_brute_ms");
    }
    const double speedup =
        spatial_ms > 0.0 && brute_ms > 0.0 ? brute_ms / spatial_ms : 0.0;
    std::printf("    %s{\"nodes\": %zu, \"sinks\": %zu, \"runs\": %zu,\n"
                "      \"accuracy_mean\": %.6f, \"accepted\": %zu, "
                "\"degraded\": %zu,\n"
                "      \"round_ms_mean\": %.3f, \"round_ms_min\": %.3f, "
                "\"round_ms_max\": %.3f,\n"
                "      \"bytes_mean\": %.1f, "
                "\"build_spatial_ms\": %.3f, \"build_brute_ms\": "
                "%.3f, \"build_speedup\": %.1f%s}\n",
                cell == 0 ? "" : ",", nodes, sinks, result.ok_runs(cell),
                mean("accuracy"), result.Get(cell, "accepted").total(),
                result.Get(cell, "degraded").total(), mean("round_ms"),
                round_ms.min(), round_ms.max(), mean("bytes"), spatial_ms,
                brute_ms, speedup,
                nodes < 10000 || sinks != 1 ? ""
                : speedup >= 20.0 ? ", \"speedup_target_20x\": \"met\""
                                  : ", \"speedup_target_20x\": \"MISSED\"");
  }
  std::printf("  ],\n  \"peak_rss_mib\": %zu\n}\n", util::PeakRssKb() / 1024);
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
