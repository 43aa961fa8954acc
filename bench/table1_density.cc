// Table I: network size vs. average node degree on the 400 m x 400 m
// deployment with 50 m range. Paper values: 200→8.8, 300→13.7, 400→18.6,
// 500→23.5, 600→28.4.
//
// One bench sweep (bench_common.h): --journal/--resume make the table
// regenerable after a kill, and a permanently failed run degrades its
// row ("n/requested" runs column) instead of aborting the table.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/topology.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace ipda::bench {
namespace {

constexpr double kPaperDegrees[] = {8.8, 13.7, 18.6, 23.5, 28.4};
constexpr uint64_t kSweepSeed = 0xA11CE;

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  // Deployments are cheap; use a higher default for a tighter mean.
  const size_t runs = RunsPerPoint() * 4;

  const std::vector<size_t> sizes = NetworkSizes();
  SweepSpec spec{"table1_density", kSweepSeed, "", {}, true};
  for (size_t n : sizes) {
    spec.cells.push_back({"N=" + std::to_string(n), runs, nullptr, ""});
  }
  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [&](const RunContext& ctx) -> util::Result<Record> {
        agg::RunConfig config = PaperRunConfig(sizes[ctx.cell], ctx.seed);
        config.control = ctx.control;
        IPDA_ASSIGN_OR_RETURN(const net::Topology topology,
                              agg::BuildRunTopology(config));
        return Record().Set("degree", topology.AverageDegree());
      });

  PrintHeader("Table I — network size vs. network density",
              "average node degree of the random geometric deployment");
  stats::Table table({"nodes", "avg degree (ours)", "min", "max", "paper",
                      "runs"});
  for (size_t row = 0; row < sizes.size(); ++row) {
    // A failed run never contributed, so its row degrades to n/requested.
    const stats::Summary& degrees = result.Get(row, "degree").summary;
    table.AddRow({stats::FormatInt(static_cast<long long>(sizes[row])),
                  stats::FormatDouble(degrees.mean(), 1),
                  stats::FormatDouble(degrees.min(), 1),
                  stats::FormatDouble(degrees.max(), 1),
                  stats::FormatDouble(kPaperDegrees[row], 1),
                  std::to_string(degrees.count()) + "/" +
                      std::to_string(runs)});
  }
  table.PrintTo(stdout);
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
