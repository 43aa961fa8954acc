// Fig. 6: red-tree vs blue-tree COUNT aggregates across network sizes,
// without any attack, for l = 1 and l = 2, against the "perfect" line
// (true sensor count). The paper uses this to justify Th = 5: the two
// trees' results differ only by (small) loss noise. Both regimes run as
// one bench sweep (bench_common.h).

#include <cstdio>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "bench_common.h"
#include "stats/series.h"
#include "stats/summary.h"

namespace ipda::bench {
namespace {

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  const size_t runs = RunsPerPoint();

  // One cell per (regime, N, l). Same seed across l values: paired
  // deployments. With retransmissions capped low (the lossy regime), a
  // few unicasts die on hidden-terminal collisions — the small asymmetric
  // losses the paper's ns-2/802.11 stack exhibits, which is what Th
  // exists to absorb.
  struct Regime {
    const char* pool;
    uint64_t seed_base;
    uint64_t stride;
    bool lossy;
  };
  const Regime regimes[] = {{"ideal", 0xF16'6u, 7919, false},
                            {"lossy", 0xF16'6bu, 7333, true}};
  SweepSpec spec{"fig6_th_setting", 0, "", {}, false};
  struct Point {
    bool lossy;
    size_t n;
    uint32_t l;
  };
  std::vector<Point> points;
  for (const Regime& regime : regimes) {
    for (size_t n : NetworkSizes()) {
      for (uint32_t l : {1u, 2u}) {
        char label[48];
        std::snprintf(label, sizeof(label), "%s,N=%zu,l=%u", regime.pool, n,
                      l);
        spec.cells.push_back({label, runs, [regime, n](size_t r) {
                                return regime.seed_base + r * regime.stride +
                                       n;
                              }, regime.pool});
        points.push_back({regime.lossy, n, l});
      }
    }
  }
  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [&](const RunContext& ctx) -> util::Result<Record> {
        const Point& point = points[ctx.cell];
        auto config = PaperRunConfig(point.n, ctx.seed);
        config.control = ctx.control;
        if (point.lossy) config.mac.max_retries = 1;
        auto function = agg::MakeCount();
        auto field = agg::MakeConstantField(1.0);
        IPDA_ASSIGN_OR_RETURN(
            const agg::IpdaRunResult run,
            agg::RunIpda(config, *function, *field,
                         PaperIpdaConfig(point.l)));
        return Record()
            .Set("red", run.stats.decision.acc_red[0])
            .Set("blue", run.stats.decision.acc_blue[0])
            .Set("diff", run.stats.decision.max_component_diff);
      });

  PrintHeader("Fig. 6 — red vs blue tree aggregates (Th setting)",
              "COUNT per tree vs network size, no attack; paper: Th=5 "
              "suffices");
  stats::SeriesSet series;
  stats::SeriesSet lossy;
  for (size_t cell = 0; cell < points.size(); ++cell) {
    const auto [is_lossy, n, l] = points[cell];
    const double x = static_cast<double>(n);
    char name[48];
    std::snprintf(name, sizeof(name), "|diff| l=%u", l);
    if (is_lossy) {
      lossy.Add(name, x, result.Get(cell, "diff").summary.mean());
      continue;
    }
    char red_name[48], blue_name[48];
    std::snprintf(red_name, sizeof(red_name), "red l=%u", l);
    std::snprintf(blue_name, sizeof(blue_name), "blue l=%u", l);
    series.Add(red_name, x, result.Get(cell, "red").summary.mean());
    series.Add(blue_name, x, result.Get(cell, "blue").summary.mean());
    series.Add(name, x, result.Get(cell, "diff").summary.mean());
    if (l == 2) series.Add("perfect", x, static_cast<double>(n - 1));
  }
  const stats::Summary& all_diffs = result.Pool("ideal", "diff").summary;
  series.ToTable("N", 1).PrintTo(stdout);
  std::printf(
      "\nmax |S_red - S_blue| over all runs: %.2f  (mean %.2f)\n"
      "With link-layer ARQ every delivered contribution reaches both\n"
      "trees, so the trees agree exactly; losses are symmetric\n"
      "non-participation.\n",
      all_diffs.max(), all_diffs.mean());

  std::printf("\nLossy regime (MAC retries capped at 1):\n");
  const stats::Summary& lossy_diffs = result.Pool("lossy", "diff").summary;
  lossy.ToTable("N", 2).PrintTo(stdout);
  std::printf(
      "\nlossy-regime max |S_red - S_blue| = %.2f (mean %.2f)\n"
      "=> a small positive Th (paper: Th = 5) absorbs loss-induced\n"
      "disagreement without masking real pollution.\n",
      lossy_diffs.max(), lossy_diffs.mean());
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
