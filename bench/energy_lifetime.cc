// Energy and lifetime: what privacy + integrity cost in joules.
//
// The paper motivates in-network aggregation with energy ("save resource
// consumptions and increase the lives time of WSNs") and lists efficiency
// among the §II-D design goals. This bench prices one aggregation round
// per protocol under the first-order radio model and converts the hottest
// node's draw into a battery-lifetime estimate.

#include <cstdio>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "bench_common.h"
#include "obs/metrics.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace ipda::bench {
namespace {

constexpr double kBatteryJ = 2.0;  // Mote-class energy budget (~2 J).
constexpr size_t kNodes = 400;

struct EnergyOutcome {
  double total_j = 0.0;
  double hottest_j = 0.0;  // Max per-node energy: the lifetime bound.
  double duration_s = 0.0;
};

// All five protocol arms priced on one shared deployment seed.
struct RunOutcome {
  bool ok = false;
  EnergyOutcome tag, smart, cpda, kipda, ipda;
};

// Energy and round duration come straight off the run's metrics registry
// (DESIGN.md §11): the same net.energy_* gauges a `--metrics` file
// carries, so the bench and the metrics pipeline can never disagree.
EnergyOutcome Price(const obs::Snapshot& metrics) {
  EnergyOutcome out;
  out.total_j = metrics.GaugeOr("net.energy_total_j", 0.0);
  out.hottest_j = metrics.GaugeOr("net.energy_hottest_node_j", 0.0);
  out.duration_s = metrics.GaugeOr("agg.round_duration_s", 0.0);
  return out;
}

RunOutcome PriceAllProtocols(const agg::RunConfig& config) {
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  RunOutcome out;

  {
    auto run = agg::RunTag(config, *function, *field);
    if (!run.ok()) return out;
    out.tag = Price(run->metrics);
  }
  {
    agg::SmartConfig smart;
    smart.slice_count = 3;
    smart.slice_range = 1.0;
    auto run = agg::RunSmart(config, *function, *field, smart);
    if (!run.ok()) return out;
    out.smart = Price(run->metrics);
  }
  {
    agg::CpdaConfig cpda;
    cpda.coeff_range = 10.0;
    auto run = agg::RunCpda(config, *function, *field, cpda);
    if (!run.ok()) return out;
    out.cpda = Price(run->metrics);
  }
  {
    agg::KipdaConfig kipda;
    kipda.value_floor = 0.0;
    kipda.value_ceiling = 2.0;  // COUNT-scale readings.
    auto run = agg::RunKipda(config, *field, kipda);
    if (!run.ok()) return out;
    out.kipda = Price(run->metrics);
  }
  {
    auto run =
        agg::RunIpda(config, *function, *field, PaperIpdaConfig(2));
    if (!run.ok()) return out;
    out.ipda = Price(run->metrics);
  }
  out.ok = true;
  return out;
}

int Run(int argc, char** argv) {
  exp::Engine engine(BenchJobs(argc, argv));
  PrintHeader("Energy & lifetime — what privacy and integrity cost",
              "first-order radio model, one COUNT round at N=400");
  const size_t runs = RunsPerPoint();

  const auto outcomes = engine.Map<RunOutcome>(runs, [](size_t r) {
    return PriceAllProtocols(PaperRunConfig(kNodes, 0xE66 + r * 211));
  });

  stats::Summary tag_total, tag_hot, smart_total, smart_hot;
  stats::Summary cpda_total, cpda_hot, kipda_total, kipda_hot;
  stats::Summary ipda_total, ipda_hot;
  stats::Summary tag_dur, smart_dur, cpda_dur, kipda_dur, ipda_dur;
  for (const RunOutcome& out : outcomes) {
    if (!out.ok) return 1;
    tag_total.Add(out.tag.total_j);
    tag_hot.Add(out.tag.hottest_j);
    tag_dur.Add(out.tag.duration_s);
    smart_total.Add(out.smart.total_j);
    smart_hot.Add(out.smart.hottest_j);
    smart_dur.Add(out.smart.duration_s);
    cpda_total.Add(out.cpda.total_j);
    cpda_hot.Add(out.cpda.hottest_j);
    cpda_dur.Add(out.cpda.duration_s);
    kipda_total.Add(out.kipda.total_j);
    kipda_hot.Add(out.kipda.hottest_j);
    kipda_dur.Add(out.kipda.duration_s);
    ipda_total.Add(out.ipda.total_j);
    ipda_hot.Add(out.ipda.hottest_j);
    ipda_dur.Add(out.ipda.duration_s);
  }

  // Idle listening (radio on, nothing received) usually dominates real
  // mote budgets; 10 mW of listen power across the whole round shows how
  // protocol DURATION — not just bytes — prices in.
  constexpr double kIdleWatts = 0.010;
  stats::Table table({"scheme", "network mJ/round", "hottest node mJ",
                      "rounds on a 2 J battery",
                      "+idle @10mW, mJ/node"});
  auto add = [&](const char* name, stats::Summary& total,
                 stats::Summary& hot, stats::Summary& duration) {
    table.AddRow({name, stats::FormatDouble(total.mean() * 1e3, 2),
                  stats::FormatDouble(hot.mean() * 1e3, 3),
                  stats::FormatInt(static_cast<long long>(
                      kBatteryJ / hot.mean())),
                  stats::FormatDouble(
                      kIdleWatts * duration.mean() * 1e3, 1)});
  };
  add("TAG", tag_total, tag_hot, tag_dur);
  add("SMART J=3", smart_total, smart_hot, smart_dur);
  add("CPDA deg=2", cpda_total, cpda_hot, cpda_dur);
  add("KIPDA M=12", kipda_total, kipda_hot, kipda_dur);
  add("iPDA l=2", ipda_total, ipda_hot, ipda_dur);
  table.PrintTo(stdout);
  std::printf(
      "\nLifetime is bounded by the hottest node (a hop-1 aggregator that\n"
      "hears and forwards the most). iPDA's overhead ratio in joules\n"
      "tracks its byte ratio: privacy + integrity cost ~%.1fx TAG's\n"
      "energy per round.\n",
      ipda_total.mean() / tag_total.mean());
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
