// Topology-churn sweep: membership churn rate x mobility speed, iPDA
// with three churn responses per grid point.
//
// Every point drives the same seeded churn schedule (random leave/rejoin
// pairs plus random-waypoint walkers) against three iPDA arms: `none`
// (the paper's protocol, trees frozen at Phase I), `repair` (incremental
// disjoint-tree grafting with bounded backoff), and `rebuild` (throttled
// HELLO re-flood from scratch — the baseline repair must beat on control
// overhead). All arms run with slice retargeting and parent failover on,
// so the comparison isolates the tree-maintenance policy.
//
// One bench sweep (bench_common.h): byte-identical for any --jobs value
// or kill/resume split.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "bench_common.h"
#include "fault/churn_plan.h"
#include "sim/time.h"

namespace ipda::bench {
namespace {

constexpr size_t kNodes = 300;
constexpr uint64_t kSweepSeed = 0xC4172;

// Random leave/rejoin pairs at `churn_rate_hz` (1 s down) plus a
// quarter of the nodes walking at `speed_mps`; zero switches either off.
fault::ChurnPlan MakePlan(double churn_rate_hz, double speed_mps) {
  fault::ChurnPlan plan;
  if (churn_rate_hz > 0.0) plan.churn = {churn_rate_hz, sim::SecondsF(1.0)};
  if (speed_mps > 0.0) plan.mobility = {0.25, speed_mps};
  return plan;
}

void PrintArm(const SweepResult& result, size_t cell, const char* arm,
              bool last) {
  const auto field = [&](const char* name) -> const FieldFold& {
    return result.Get(cell, std::string(arm) + "." + name);
  };
  const stats::Summary& latency = field("repair_latency_ms").summary;
  std::printf(
      "      \"ipda_%s\": {\"accuracy_mean\": %.6f, \"completeness_mean\": "
      "%.6f, \"accepted\": %zu, \"degraded\": %zu, \"grafts\": %zu, "
      "\"disjoint_violations\": %zu, \"joins_absorbed\": %zu, "
      "\"control_msgs\": %zu, \"backoff_retries\": %zu, "
      "\"repair_latency_ms_mean\": %.6f, \"runs\": %zu}%s\n",
      arm, field("accuracy").summary.mean(),
      field("completeness").summary.mean(), field("accepted").total(),
      field("degraded").total(), field("grafts").total(),
      field("violations").total(), field("joins").total(),
      field("control_msgs").total(), field("retries").total(),
      latency.count() > 0 ? latency.mean() : 0.0, result.ok_runs(cell),
      last ? "" : ",");
}

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  const size_t runs = RunsPerPoint();
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);

  SweepSpec spec{"churn_sweep", kSweepSeed,
                 "nodes=" + std::to_string(kNodes), {}, true};
  std::vector<std::pair<double, double>> grid;
  for (double rate : {0.0, 0.5, 1.0}) {     // Leave/rejoin events/s.
    for (double speed : {0.0, 10.0}) {      // Walker speed, m/s.
      char label[64];
      std::snprintf(label, sizeof(label), "churn=%.2f,speed=%.1f", rate,
                    speed);
      spec.cells.push_back({label, runs, nullptr, ""});
      grid.emplace_back(rate, speed);
    }
  }

  const std::pair<agg::ChurnResponse, const char*> arms[] = {
      {agg::ChurnResponse::kNone, "none"},
      {agg::ChurnResponse::kRepair, "repair"},
      {agg::ChurnResponse::kRebuild, "rebuild"},
  };
  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [&](const RunContext& ctx) -> util::Result<Record> {
        const auto [rate, speed] = grid[ctx.cell];
        agg::RunConfig config = PaperRunConfig(kNodes, ctx.seed);
        config.control = ctx.control;
        config.churn = MakePlan(rate, speed);
        Record record;
        for (const auto& [response, name] : arms) {
          agg::IpdaConfig proto = PaperIpdaConfig(2);
          proto.retarget_slices = true;
          proto.parent_failover = true;
          proto.churn_response = response;
          IPDA_ASSIGN_OR_RETURN(
              const agg::IpdaRunResult run,
              agg::RunIpda(config, *function, *field, proto));
          const agg::IpdaStats& stats = run.stats;
          const std::string arm = std::string(name) + ".";
          record.Set(arm + "accuracy", run.accuracy)
              .Set(arm + "completeness",
                   std::min(stats.completeness_red, stats.completeness_blue))
              .Set(arm + "accepted", stats.decision.accepted)
              .Set(arm + "degraded", stats.degraded)
              .Set(arm + "grafts", stats.grafts)
              .Set(arm + "violations", stats.disjoint_violations)
              .Set(arm + "joins", stats.joins_absorbed)
              .Set(arm + "control_msgs", stats.churn_control_msgs)
              .Set(arm + "retries", stats.backoff_retries);
          if (stats.grafts > 0) {  // The run's mean graft latency.
            const std::vector<double>& latencies = stats.repair_latencies_ms;
            double sum = 0.0;
            for (double ms : latencies) sum += ms;
            record.Set(arm + "repair_latency_ms",
                       latencies.empty() ? 0.0 : sum / latencies.size());
          }
        }
        return record;
      });

  std::printf("{\n  \"experiment\": \"churn_sweep\",\n  \"nodes\": %zu,\n"
              "  \"runs_per_point\": %zu,\n  \"failed_runs\": %zu,\n"
              "  \"grid\": [\n",
              kNodes, runs, result.failed_runs());
  for (size_t cell = 0; cell < grid.size(); ++cell) {
    std::printf("    %s{\n      \"churn_rate_hz\": %.2f, \"speed_mps\": "
                "%.1f, \"requested\": %zu,\n",
                cell == 0 ? "" : ",", grid[cell].first, grid[cell].second,
                runs);
    PrintArm(result, cell, "none", /*last=*/false);
    PrintArm(result, cell, "repair", /*last=*/false);
    PrintArm(result, cell, "rebuild", /*last=*/true);
    std::printf("    }\n");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
