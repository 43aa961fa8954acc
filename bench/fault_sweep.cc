// Failure-resilience sweep: crash fraction x link loss, iPDA vs TAG.
//
// Crashes land mid data phase (TAG: during the report schedule; iPDA:
// inside the Phase II slice window), the worst time to lose a node. Three
// protocol arms per grid point: TAG (no privacy, single tree), iPDA as
// specified by the paper, and iPDA with the failure-resilience extensions
// (slice retargeting + parent failover) switched on.
//
// One bench sweep (bench_common.h): journaled, drainable and resumable,
// byte-identical for any --jobs value or kill/resume split. A permanently failed run degrades its point (fewer "runs")
// and is counted in "failed_runs"; it never aborts the grid.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "bench_common.h"
#include "fault/fault_plan.h"
#include "sim/time.h"

namespace ipda::bench {
namespace {

constexpr size_t kNodes = 300;
constexpr uint64_t kSweepSeed = 0xFA117;

// Mid data phase for each protocol (see header comment).
constexpr sim::SimTime kTagCrashAt = sim::Milliseconds(2200);
constexpr sim::SimTime kIpdaCrashAt = sim::Milliseconds(4400);

fault::FaultPlan MakePlan(double crash_frac, double loss_rate,
                          sim::SimTime crash_at) {
  fault::FaultPlan plan;
  if (crash_frac > 0.0) {
    plan.random_crashes.push_back(fault::RandomCrash{crash_frac, crash_at});
  }
  plan.link.loss_rate = loss_rate;
  return plan;
}

void PrintArm(const SweepResult& result, size_t cell, const char* arm,
              bool last) {
  const auto field = [&](const char* name) -> const FieldFold& {
    return result.Get(cell, std::string(arm) + "." + name);
  };
  std::printf(
      "      \"%s\": {\"accuracy_mean\": %.6f, \"completeness_mean\": "
      "%.6f, \"accepted\": %zu, \"degraded\": %zu, \"retargeted\": %zu, "
      "\"rerouted\": %zu, \"orphaned\": %zu, \"runs\": %zu}%s\n",
      arm, field("accuracy").summary.mean(),
      field("completeness").summary.mean(), field("accepted").total(),
      field("degraded").total(), field("retargeted").total(),
      field("rerouted").total(), field("orphaned").total(),
      result.ok_runs(cell), last ? "" : ",");
}

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  const size_t runs = RunsPerPoint();
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);

  SweepSpec spec{"fault_sweep", kSweepSeed,
                 "nodes=" + std::to_string(kNodes), {}, true};
  std::vector<std::pair<double, double>> grid;
  for (double crash : {0.0, 0.05, 0.10, 0.20}) {
    for (double loss : {0.0, 0.05, 0.10}) {
      char label[64];
      std::snprintf(label, sizeof(label), "crash=%.2f,loss=%.2f", crash,
                    loss);
      spec.cells.push_back({label, runs, nullptr, ""});
      grid.emplace_back(crash, loss);
    }
  }

  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [&](const RunContext& ctx) -> util::Result<Record> {
        const auto [crash, loss] = grid[ctx.cell];
        Record record;
        agg::RunConfig tag_config = PaperRunConfig(kNodes, ctx.seed);
        tag_config.control = ctx.control;
        tag_config.faults = MakePlan(crash, loss, kTagCrashAt);
        IPDA_ASSIGN_OR_RETURN(const agg::TagRunResult tag,
                              agg::RunTag(tag_config, *function, *field));
        record.Set("tag.accuracy", tag.accuracy)
            .Set("tag.completeness", 1.0)
            .Set("tag.accepted", 1.0);  // TAG has no integrity check.

        agg::RunConfig config = PaperRunConfig(kNodes, ctx.seed);
        config.control = ctx.control;
        config.faults = MakePlan(crash, loss, kIpdaCrashAt);
        for (bool failover : {false, true}) {
          agg::IpdaConfig proto = PaperIpdaConfig(2);
          proto.retarget_slices = failover;
          proto.parent_failover = failover;
          IPDA_ASSIGN_OR_RETURN(
              const agg::IpdaRunResult run,
              agg::RunIpda(config, *function, *field, proto));
          const std::string arm = failover ? "ipda_failover." : "ipda.";
          const agg::IpdaStats& stats = run.stats;
          record.Set(arm + "accuracy", run.accuracy)
              .Set(arm + "completeness",
                   std::min(stats.completeness_red, stats.completeness_blue))
              .Set(arm + "accepted", stats.decision.accepted)
              .Set(arm + "degraded", stats.degraded)
              .Set(arm + "retargeted", stats.slices_retargeted)
              .Set(arm + "rerouted", stats.reports_rerouted)
              .Set(arm + "orphaned", stats.orphaned_partials);
        }
        return record;
      });

  std::printf("{\n  \"experiment\": \"fault_sweep\",\n");
  std::printf("  \"nodes\": %zu,\n  \"runs_per_point\": %zu,\n", kNodes,
              runs);
  std::printf("  \"failed_runs\": %zu,\n", result.failed_runs());
  std::printf("  \"grid\": [\n");
  for (size_t cell = 0; cell < grid.size(); ++cell) {
    std::printf("    %s{\n", cell == 0 ? "" : ",");
    std::printf("      \"crash_frac\": %.2f, \"loss_rate\": %.2f, "
                "\"requested\": %zu,\n",
                grid[cell].first, grid[cell].second, runs);
    PrintArm(result, cell, "tag", /*last=*/false);
    PrintArm(result, cell, "ipda", /*last=*/false);
    PrintArm(result, cell, "ipda_failover", /*last=*/true);
    std::printf("    }\n");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
