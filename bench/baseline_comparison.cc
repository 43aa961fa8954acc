// Positioning table (paper §I/§V): TAG vs SMART (PDA's slice-mix-
// aggregate, ref. [11]) vs iPDA across the four design goals of §II-D —
// accuracy, efficiency (bytes), privacy (empirical disclosure under
// p_x = 0.1 link compromise), and integrity (is pollution detected?).
// The arms run as one bench sweep (bench_common.h).

#include <cstdio>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "attack/cpda_collusion.h"
#include "attack/eavesdropper.h"
#include "attack/pollution.h"
#include "bench_common.h"
#include "crypto/link_security.h"
#include "sim/simulator.h"
#include "stats/table.h"

namespace ipda::bench {
namespace {

constexpr double kPx = 0.1;

std::vector<crypto::Link> LinksOf(const net::Topology& topology) {
  std::vector<crypto::Link> links;
  for (net::NodeId a = 0; a < topology.node_count(); ++a) {
    for (net::NodeId b : topology.neighbors(a)) {
      if (a < b) links.emplace_back(a, b);
    }
  }
  return links;
}

attack::Eavesdropper MakeEve(const net::Topology& topology,
                             const std::vector<crypto::Link>& links,
                             uint64_t seed) {
  util::Rng rng(seed);
  auto compromise = crypto::UniformLinkCompromise(links.size(), kPx, rng);
  std::vector<bool> broken(compromise.broken.begin(),
                           compromise.broken.end());
  return attack::Eavesdropper(topology.node_count(), links, broken);
}

// All four arms on one deployment; every other run is polluted to
// measure detection, and only unpolluted runs feed iPDA's accuracy,
// bytes and leak (the detection fields are absent on unpolluted runs).
util::Result<Record> RunArms(size_t r, uint64_t seed,
                             const agg::RunControl& control) {
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  auto config = PaperRunConfig(400, seed);
  config.control = control;
  IPDA_ASSIGN_OR_RETURN(const net::Topology topology,
                        agg::BuildRunTopology(config));
  const auto links = LinksOf(topology);
  Record record;

  IPDA_ASSIGN_OR_RETURN(const agg::TagRunResult tag,
                        agg::RunTag(config, *function, *field));
  record.Set("tag_acc", tag.accuracy)
      .Set("tag_bytes", static_cast<double>(tag.traffic.bytes_sent));

  {
    attack::Eavesdropper eve = MakeEve(topology, links, r * 31 + 1);
    auto ipda_observer = eve.Observer();
    agg::SmartConfig smart_config;
    smart_config.slice_count = 3;
    smart_config.slice_range = 1.0;
    IPDA_ASSIGN_OR_RETURN(
        const agg::SmartRunResult smart,
        agg::RunSmart(config, *function, *field, smart_config,
                      [&](net::NodeId from, net::NodeId to,
                          const agg::Vector& s) {
                        ipda_observer(from, to, agg::TreeColor::kRed, s);
                      }));
    record.Set("smart_acc", smart.accuracy)
        .Set("smart_bytes", static_cast<double>(smart.traffic.bytes_sent))
        .Set("smart_leak", eve.Evaluate().disclosure_rate);
  }

  {
    agg::CpdaConfig cpda_config;
    cpda_config.coeff_range = 10.0;
    IPDA_ASSIGN_OR_RETURN(
        const agg::CpdaRunResult cpda,
        agg::RunCpda(config, *function, *field, cpda_config));
    record.Set("cpda_acc", cpda.accuracy)
        .Set("cpda_bytes", static_cast<double>(cpda.traffic.bytes_sent))
        .Set("cpda_masked", static_cast<double>(cpda.stats.clustered) /
                                static_cast<double>(cpda.stats.clustered +
                                                    cpda.stats.unprotected));
  }

  attack::Eavesdropper eve = MakeEve(topology, links, r * 31 + 2);
  agg::IpdaRunHooks hooks;
  hooks.slice_observer = eve.Observer();
  size_t fired = 0;
  attack::PollutionConfig attack_config;
  attack_config.attackers = {static_cast<net::NodeId>(30 + r)};
  attack_config.additive_delta = 50.0;
  const bool polluted_run = r % 2 == 1;
  if (polluted_run) {
    hooks.pollution = attack::MakePollutionHook(attack_config, &fired);
  }
  IPDA_ASSIGN_OR_RETURN(
      const agg::IpdaRunResult ipda,
      agg::RunIpda(config, *function, *field, PaperIpdaConfig(2),
                   hooks));
  if (!polluted_run) {
    record.Set("ipda_acc", ipda.accuracy)
        .Set("ipda_bytes", static_cast<double>(ipda.traffic.bytes_sent))
        .Set("ipda_leak", eve.Evaluate().disclosure_rate);
  } else if (fired > 0) {
    record.Set("pollution_caught", !ipda.stats.decision.accepted);
  }
  return record;
}

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  const size_t runs = RunsPerPoint();
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);

  const SweepSpec spec{
      "baseline_comparison",
      0,
      "",
      {{"N=400", runs * 2, [](size_t r) { return 0xBA5E + r * 401; }, ""}},
      false};
  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [](const RunContext& ctx) {
        return RunArms(ctx.run, ctx.seed, ctx.control);
      });
  const auto mean = [&result](const char* field) {
    return result.Get(0, field).summary.mean();
  };
  const auto format = [&mean](const char* field, int digits) {
    return stats::FormatDouble(mean(field), digits);
  };

  PrintHeader("Baseline comparison — TAG vs SMART vs iPDA",
              "the §II-D design goals, head to head at N=400");
  stats::Table table({"scheme", "accuracy", "bytes/round",
                      "disclosure @ px=0.1", "pollution detected"});
  table.AddRow({"TAG", format("tag_acc", 3), format("tag_bytes", 0),
                "~1.0 (plaintext partials)", "never (no check)"});
  table.AddRow({"SMART J=3", format("smart_acc", 3),
                format("smart_bytes", 0), format("smart_leak", 4),
                "never (no check)"});
  char cpda_privacy[64];
  std::snprintf(cpda_privacy, sizeof(cpda_privacy),
                "~px^3 per masked node (%.0f%% masked)",
                100.0 * mean("cpda_masked"));
  table.AddRow({"CPDA deg=2", format("cpda_acc", 3), format("cpda_bytes", 0),
                cpda_privacy, "never (no check)"});
  const FieldFold& caught_runs = result.Get(0, "pollution_caught");
  char caught[48];
  std::snprintf(caught, sizeof(caught), "%zu/%zu runs", caught_runs.total(),
                caught_runs.count());
  table.AddRow({"iPDA l=2", format("ipda_acc", 3), format("ipda_bytes", 0),
                format("ipda_leak", 4), caught});
  table.PrintTo(stdout);
  std::printf(
      "\niPDA pays ~%.1fx SMART's bytes for the integrity check; both\n"
      "inherit the same slicing privacy. TAG is cheapest and blind.\n",
      mean("ipda_bytes") / mean("smart_bytes"));

  // CPDA's collusion threshold, measured: 30 insiders learn almost
  // nothing, 120 reconstruct a visible share of their co-members' values
  // exactly (3 colluding co-members break a degree-2 mask).
  std::printf("\nCPDA insider collusion (degree-2 masking):\n");
  for (size_t colluders : {30u, 120u}) {
    const auto config = PaperRunConfig(400, 0xC01D);
    auto topology = agg::BuildRunTopology(config);
    if (!topology.ok()) return 1;
    sim::Simulator simulator(config.seed);
    net::Network network(&simulator, std::move(*topology));
    agg::CpdaConfig cpda_config;
    cpda_config.coeff_range = 10.0;
    agg::CpdaProtocol protocol(&network, function.get(), cpda_config);
    util::Rng rng(colluders);
    std::vector<net::NodeId> coalition;
    for (size_t idx :
         rng.SampleWithoutReplacement(network.size() - 1, colluders)) {
      coalition.push_back(static_cast<net::NodeId>(idx + 1));
    }
    attack::CpdaCollusionAnalysis analysis(coalition,
                                           cpda_config.poly_degree);
    protocol.SetShareObserver(analysis.Observer());
    protocol.SetReadings(field->Sample(network.topology()));
    protocol.Start();
    simulator.RunUntil(protocol.Duration());
    protocol.Finish();
    const auto report = analysis.Evaluate();
    std::printf("  %3zu colluders: %zu/%zu observed victims exposed "
                "(exactly reconstructed)\n",
                colluders, report.victims_exposed,
                report.victims_observed);
  }
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
