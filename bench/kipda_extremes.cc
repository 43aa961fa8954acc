// Private MAX two ways (§II-B vs related work):
//   * iPDA route: the paper's power-mean trick — MAX ≈ (Σ r^k)^{1/k} —
//     rides the additive machinery, keeping integrity protection but
//     returning an approximation whose error shrinks with k;
//   * KIPDA route: exact elementwise-max over camouflaged messages, no
//     crypto and no integrity, with message size M as the privacy knob.
// All six rows are cells of one bench sweep (bench_common.h).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "bench_common.h"
#include "net/topology.h"
#include "stats/table.h"

namespace ipda::bench {
namespace {

constexpr size_t kNodes = 400;

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  const size_t runs = RunsPerPoint();
  auto field = agg::MakeUniformField(5.0, 95.0, 77);

  // Six rows on the same deployments: iPDA + power mean at several
  // exponents, then KIPDA at several message sizes.
  const double exponents[] = {8.0, 16.0, 32.0};
  const size_t message_sizes[] = {8u, 16u, 32u};
  SweepSpec spec{"kipda_extremes", 0, "", {}, false};
  for (double k : exponents) {
    char name[48];
    std::snprintf(name, sizeof(name), "iPDA power-mean k=%.0f", k);
    spec.cells.push_back(
        {name, runs, [](size_t r) { return 0x3A + r * 67; }, ""});
  }
  for (size_t m : message_sizes) {
    spec.cells.push_back({"KIPDA M=" + std::to_string(m), runs,
                          [](size_t r) { return 0x3A + r * 67; }, ""});
  }
  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [&](const RunContext& ctx) -> util::Result<Record> {
        auto config = PaperRunConfig(kNodes, ctx.seed);
        config.control = ctx.control;
        Record record;
        if (ctx.cell >= std::size(exponents)) {
          const size_t m = message_sizes[ctx.cell - std::size(exponents)];
          agg::KipdaConfig kipda;
          kipda.message_size = m;
          kipda.real_positions = std::max<size_t>(2, m / 4);
          IPDA_ASSIGN_OR_RETURN(const agg::KipdaRunResult run,
                                agg::RunKipda(config, *field, kipda));
          // true_acc[0] is the true maximum of the deployed readings.
          return record.Set("error", std::fabs(run.result - run.true_acc[0]))
              .Set("bytes", static_cast<double>(run.traffic.bytes_sent));
        }
        const double k = exponents[ctx.cell];
        auto function = agg::MakePowerMeanExtremum(k);
        agg::IpdaConfig ipda;
        // r^k spans a huge range; slice noise and Th must scale with it.
        ipda.slice_range = std::pow(95.0, k) / 100.0;
        ipda.threshold = std::pow(95.0, k) / 10.0;
        IPDA_ASSIGN_OR_RETURN(
            const agg::IpdaRunResult run,
            agg::RunIpda(config, *function, *field, ipda));
        // Error against the true maximum of the deployed readings (covers
        // both the power-mean approximation and any loss).
        IPDA_ASSIGN_OR_RETURN(const net::Topology topology,
                              agg::BuildRunTopology(config));
        const auto readings = field->Sample(topology);
        double true_max = 0.0;
        for (size_t i = 1; i < readings.size(); ++i) {
          true_max = std::max(true_max, readings[i]);
        }
        return record.Set("accepted", run.stats.decision.accepted)
            .Set("error", std::fabs(run.result - true_max))
            .Set("bytes", static_cast<double>(run.traffic.bytes_sent));
      });

  PrintHeader("Private MAX — power-mean (iPDA) vs KIPDA",
              "exactness, overhead, and protections compared");
  stats::Table table({"approach", "mean |error|", "max |error|",
                      "bytes/round", "integrity check"});
  for (size_t cell = 0; cell < spec.cells.size(); ++cell) {
    const stats::Summary& error = result.Get(cell, "error").summary;
    const FieldFold& accepted = result.Get(cell, "accepted");
    const bool ipda = cell < std::size(exponents);
    table.AddRow({spec.cells[cell].label,
                  stats::FormatDouble(error.mean(), 3),
                  stats::FormatDouble(error.max(), 3),
                  stats::FormatDouble(
                      result.Get(cell, "bytes").summary.mean(), 0),
                  !ipda ? "no"
                  : accepted.total() == accepted.count() ? "yes (Th, scaled)"
                                                         : "REJECTED"});
  }
  table.PrintTo(stdout);
  std::printf(
      "\nKIPDA is exact whenever the max-holder is reached, with privacy\n"
      "from camouflage alone; the power-mean route keeps iPDA's Th\n"
      "integrity check but approximates, tightening as k grows (at the\n"
      "cost of numeric range: r^k needs Th and slice noise rescaled).\n");
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
