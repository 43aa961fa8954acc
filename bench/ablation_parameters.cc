// Ablations over the design choices DESIGN.md calls out:
//   1. Adaptive roles (Eq. 1, k-budget) vs fixed pr=pb=0.5 (Eq. 2):
//      aggregator share, coverage, bytes.
//   2. k sweep under adaptive roles.
//   3. HELLO re-broadcast extension: coverage vs overhead at low density.
//   4. l sweep: privacy (analytic) vs participation vs bytes.
// Every row is one cell of a single bench sweep (bench_common.h).

#include <cstdio>
#include <string>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "analysis/multi_tree.h"
#include "analysis/privacy.h"
#include "bench_common.h"
#include "stats/table.h"

namespace ipda::bench {
namespace {

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  const size_t runs = RunsPerPoint();

  // Every row is one cell; rows sharing a salt run on identical
  // deployments, so each table's comparison is paired.
  SweepSpec spec{"ablation_parameters", 0, "", {}, false};
  struct Row {
    size_t n;
    agg::IpdaConfig ipda;
  };
  std::vector<Row> rows;
  const auto add_row = [&](const std::string& label, size_t n,
                           const agg::IpdaConfig& ipda, uint64_t salt,
                           size_t row_runs) {
    spec.cells.push_back({label, row_runs, [salt](size_t r) {
                            return salt + r * 6151;
                          }, ""});
    rows.push_back({n, ipda});
  };
  // 1 + 2: role policy and k at N=500.
  add_row("fixed 0.5/0.5", 500, PaperIpdaConfig(2), 0xAB1A,
          runs);
  for (uint32_t k : {4u, 8u, 16u}) {
    agg::IpdaConfig adaptive = PaperIpdaConfig(2);
    adaptive.adaptive_roles = true;
    adaptive.k = k;
    add_row("adaptive k=" + std::to_string(k), 500, adaptive, 0xAB1A, runs);
  }
  // 3: Phase-I robustness extensions at low density. Finding: repeats
  // (loss recovery) barely move coverage because the dominant stall is a
  // color-starvation deadlock; impatient join breaks the deadlock and
  // recovers most of it.
  struct Variant {
    const char* name;
    uint32_t repeats;
    bool impatient;
  };
  const Variant variants[] = {
      {"paper baseline", 0, false},
      {"repeats=2", 2, false},
      {"impatient join", 0, true},
      {"impatient + repeats=2", 2, true},
  };
  for (const Variant& variant : variants) {
    agg::IpdaConfig ipda = PaperIpdaConfig(2);
    ipda.hello_repeats = variant.repeats;
    ipda.impatient_join = variant.impatient;
    add_row(variant.name, 250, ipda, 0xAB1C, runs * 4);
  }
  // 4: slice count l at N=500.
  const uint32_t slice_counts[] = {1u, 2u, 3u, 4u};
  for (uint32_t l : slice_counts) {
    add_row("l=" + std::to_string(l), 500, PaperIpdaConfig(l),
            0xAB1D, runs);
  }

  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [&](const RunContext& ctx) -> util::Result<Record> {
        const Row& row = rows[ctx.cell];
        const double sensors = static_cast<double>(row.n - 1);
        auto function = agg::MakeCount();
        auto field = agg::MakeConstantField(1.0);
        auto config = PaperRunConfig(row.n, ctx.seed);
        config.control = ctx.control;
        IPDA_ASSIGN_OR_RETURN(
            const agg::IpdaRunResult run,
            agg::RunIpda(config, *function, *field, row.ipda));
        const agg::IpdaStats& stats = run.stats;
        return Record()
            .Set("coverage", static_cast<double>(stats.covered_both) / sensors)
            .Set("participation",
                 static_cast<double>(stats.participants) / sensors)
            .Set("accuracy", run.accuracy)
            .Set("aggregator_share",
                 static_cast<double>(stats.red_aggregators +
                                     stats.blue_aggregators) /
                     sensors)
            .Set("bytes", static_cast<double>(run.traffic.bytes_sent));
      });
  const auto mean = [&result](size_t cell, const char* field, int digits) {
    return stats::FormatDouble(result.Get(cell, field).summary.mean(),
                               digits);
  };

  PrintHeader("Ablations — role policy, k, HELLO repeats, slice count",
              "design-choice sweeps behind §III's parameter choices");
  std::printf("Role policy at N=500 (dense; adaptive k-budget should cut "
              "aggregators and bytes):\n");
  stats::Table roles({"policy", "aggregators", "coverage", "participate",
                      "accuracy", "bytes"});
  size_t cell = 0;
  for (; cell < 4; ++cell) {
    roles.AddRow({spec.cells[cell].label, mean(cell, "aggregator_share", 2),
                  mean(cell, "coverage", 3), mean(cell, "participation", 3),
                  mean(cell, "accuracy", 3), mean(cell, "bytes", 0)});
  }
  roles.PrintTo(stdout);

  std::printf("\nPhase-I robustness at N=250 (sparse, paired "
              "deployments):\n");
  stats::Table hello({"variant", "coverage", "participate", "accuracy",
                      "bytes"});
  for (; cell < 8; ++cell) {
    hello.AddRow({spec.cells[cell].label, mean(cell, "coverage", 3),
                  mean(cell, "participation", 3), mean(cell, "accuracy", 3),
                  mean(cell, "bytes", 0)});
  }
  hello.PrintTo(stdout);

  std::printf("\nSlice count l at N=500 (privacy vs participation vs "
              "bytes; paper recommends l=2):\n");
  stats::Table slices({"l", "P_disclose@px=0.05 (Eq.11)", "participate",
                       "accuracy", "bytes"});
  for (uint32_t l : slice_counts) {
    slices.AddRow(
        {stats::FormatInt(l),
         stats::FormatDouble(
             analysis::RegularDisclosureProbability(0.05, l), 5),
         mean(cell, "participation", 3), mean(cell, "accuracy", 3),
         mean(cell, "bytes", 0)});
    ++cell;
  }
  slices.PrintTo(stdout);

  // 5: the m > 2 generalization (§III-B), analytically. Quantifies the
  // paper's warning that m > 2 needs a very dense network, plus what the
  // extra redundancy would buy (majority voting tolerance).
  std::printf("\nm-tree generalization (§III-B, analytic; protocol "
              "implements m=2):\n");
  stats::Table mtree({"m", "msgs/node (l=2)", "ratio vs TAG",
                      "degree for 99% node coverage",
                      "polluted trees tolerated"});
  for (size_t m : {2u, 3u, 4u, 5u}) {
    mtree.AddRow(
        {stats::FormatInt(static_cast<long long>(m)),
         stats::FormatDouble(analysis::MultiTreeMessagesPerNode(m, 2), 0),
         stats::FormatDouble(analysis::MultiTreeOverheadRatio(m, 2), 1),
         stats::FormatInt(static_cast<long long>(
             analysis::MultiTreeDegreeForCoverage(m, 0.99))),
         stats::FormatInt(static_cast<long long>(
             analysis::MultiTreePollutionTolerance(m)))});
  }
  mtree.PrintTo(stdout);
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
