// Energy and lifetime: what privacy + integrity cost in joules.
//
// The paper motivates in-network aggregation with energy ("save resource
// consumptions and increase the lives time of WSNs") and lists efficiency
// among the §II-D design goals. This bench prices one aggregation round
// per protocol under the first-order radio model and converts the hottest
// node's draw into a battery-lifetime estimate.

#include <cstdio>
#include <string>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "bench_common.h"
#include "obs/metrics.h"
#include "stats/table.h"

namespace ipda::bench {
namespace {

constexpr double kBatteryJ = 2.0;  // Mote-class energy budget (~2 J).
constexpr size_t kNodes = 400;

// Energy and round duration come straight off the run's metrics registry
// (DESIGN.md §11): the same net.energy_* gauges a `--metrics` file
// carries, so the bench and the metrics pipeline can never disagree.
void Price(const std::string& arm, const obs::Snapshot& metrics,
           Record& record) {
  record.Set(arm + ".total_j", metrics.GaugeOr("net.energy_total_j", 0.0))
      .Set(arm + ".hottest_j",  // Max per-node energy: the lifetime bound.
           metrics.GaugeOr("net.energy_hottest_node_j", 0.0))
      .Set(arm + ".duration_s",
           metrics.GaugeOr("agg.round_duration_s", 0.0));
}

// All five protocol arms priced on one shared deployment seed.
util::Result<Record> PriceAllProtocols(const agg::RunConfig& config) {
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  Record record;
  {
    IPDA_ASSIGN_OR_RETURN(const agg::TagRunResult run,
                          agg::RunTag(config, *function, *field));
    Price("tag", run.metrics, record);
  }
  {
    agg::SmartConfig smart;
    smart.slice_count = 3;
    smart.slice_range = 1.0;
    IPDA_ASSIGN_OR_RETURN(const agg::SmartRunResult run,
                          agg::RunSmart(config, *function, *field, smart));
    Price("smart", run.metrics, record);
  }
  {
    agg::CpdaConfig cpda;
    cpda.coeff_range = 10.0;
    IPDA_ASSIGN_OR_RETURN(const agg::CpdaRunResult run,
                          agg::RunCpda(config, *function, *field, cpda));
    Price("cpda", run.metrics, record);
  }
  {
    agg::KipdaConfig kipda;
    kipda.value_floor = 0.0;
    kipda.value_ceiling = 2.0;  // COUNT-scale readings.
    IPDA_ASSIGN_OR_RETURN(const agg::KipdaRunResult run,
                          agg::RunKipda(config, *field, kipda));
    Price("kipda", run.metrics, record);
  }
  IPDA_ASSIGN_OR_RETURN(
      const agg::IpdaRunResult run,
      agg::RunIpda(config, *function, *field, PaperIpdaConfig(2)));
  Price("ipda", run.metrics, record);
  return record;
}

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  const size_t runs = RunsPerPoint();
  const SweepSpec spec{
      "energy_lifetime",
      0,
      "",
      {{"N=400", runs, [](size_t r) { return 0xE66 + r * 211; }, ""}},
      false};
  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [](const RunContext& ctx) {
        agg::RunConfig config = PaperRunConfig(kNodes, ctx.seed);
        config.control = ctx.control;
        return PriceAllProtocols(config);
      });
  const auto mean = [&result](const std::string& field) {
    return result.Get(0, field).summary.mean();
  };

  PrintHeader("Energy & lifetime — what privacy and integrity cost",
              "first-order radio model, one COUNT round at N=400");
  // Idle listening (radio on, nothing received) usually dominates real
  // mote budgets; 10 mW of listen power across the whole round shows how
  // protocol DURATION — not just bytes — prices in.
  constexpr double kIdleWatts = 0.010;
  stats::Table table({"scheme", "network mJ/round", "hottest node mJ",
                      "rounds on a 2 J battery",
                      "+idle @10mW, mJ/node"});
  auto add = [&](const char* name, const std::string& arm) {
    const double hot = mean(arm + ".hottest_j");
    table.AddRow({name, stats::FormatDouble(mean(arm + ".total_j") * 1e3, 2),
                  stats::FormatDouble(hot * 1e3, 3),
                  stats::FormatInt(static_cast<long long>(kBatteryJ / hot)),
                  stats::FormatDouble(
                      kIdleWatts * mean(arm + ".duration_s") * 1e3, 1)});
  };
  add("TAG", "tag");
  add("SMART J=3", "smart");
  add("CPDA deg=2", "cpda");
  add("KIPDA M=12", "kipda");
  add("iPDA l=2", "ipda");
  table.PrintTo(stdout);
  std::printf(
      "\nLifetime is bounded by the hottest node (a hop-1 aggregator that\n"
      "hears and forwards the most). iPDA's overhead ratio in joules\n"
      "tracks its byte ratio: privacy + integrity cost ~%.1fx TAG's\n"
      "energy per round.\n",
      mean("ipda.total_j") / mean("tag.total_j"));
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
