// §IV-A-4 / §III-D: capacity of detecting data pollution.
//   1. Detection rate vs tampering magnitude (single attacker, Th=5).
//   2. Detection with multiple independent attackers.
//   3. False-reject rate of honest rounds vs Th (the Th trade-off).
//   4. Persistent-polluter (DoS) localization in O(log N) rounds.
//   5. The documented limitation: coordinated collusion across both trees.
// Parts 1–3 and 5 are cells of one bench sweep (bench_common.h); the
// localization of part 4 is sequential by nature (each round depends on
// the last) and runs after it.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "attack/collusion.h"
#include "attack/dos.h"
#include "attack/pollution.h"
#include "bench_common.h"
#include "stats/series.h"
#include "stats/table.h"

namespace ipda::bench {
namespace {

constexpr size_t kNodes = 400;

// The sweep's three kinds of cell (parts 1–3 and 5 below).
enum class Kind { kDetect, kHonest, kCollusion };

struct Point {
  Kind kind;
  size_t attackers = 0;  // kDetect.
  double delta = 0.0;    // kDetect.
  double th = 0.0;       // kHonest.
};

// One polluted round: "rejected" is set only when an attacker actually
// aggregated (fired), so its count is the polluted-run count.
util::Result<Record> Detect(const Point& point, agg::RunConfig config) {
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  // Independent attackers tamper by *different* amounts — identical
  // deltas on both trees would be de-facto collusion (§VI), not the
  // §IV-A-4 independent-attacker model.
  std::vector<net::NodeId> attacker_ids;
  for (size_t a = 0; a < point.attackers; ++a) {
    attacker_ids.push_back(static_cast<net::NodeId>(20 + 90 * a));
  }
  size_t fired = 0;
  agg::IpdaRunHooks hooks;
  hooks.pollution = [&attacker_ids, delta = point.delta, &fired](
                        net::NodeId node, agg::TreeColor,
                        agg::Vector& partial) {
    for (size_t a = 0; a < attacker_ids.size(); ++a) {
      if (attacker_ids[a] != node) continue;
      // Geometric spacing keeps every subset sum distinct, so
      // independent attackers can never cancel across trees.
      for (double& component : partial) {
        component += delta * std::pow(1.7, static_cast<double>(a));
      }
      ++fired;
    }
  };
  IPDA_ASSIGN_OR_RETURN(
      const agg::IpdaRunResult run,
      agg::RunIpda(config, *function, *field, PaperIpdaConfig(2),
                   hooks));
  Record record;
  if (fired > 0) record.Set("rejected", !run.stats.decision.accepted);
  return record;
}

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  const size_t runs = RunsPerPoint();
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);

  SweepSpec spec{"integrity_detection", 0, "", {}, false};
  std::vector<Point> points;
  for (size_t attackers : {1u, 2u, 4u}) {
    for (double delta : {2.0, 6.0, 20.0, 100.0}) {
      char label[48];
      std::snprintf(label, sizeof(label), "attackers=%zu,delta=%.0f",
                    attackers, delta);
      spec.cells.push_back({label, runs * 2, [attackers](size_t r) {
                              return 0xDE7EC7 + r * 31 + attackers * 7;
                            }, ""});
      points.push_back({Kind::kDetect, attackers, delta, 0.0});
    }
  }
  const double thresholds[] = {0.0, 1.0, 5.0, 10.0};
  for (double th : thresholds) {
    spec.cells.push_back({"th=" + std::to_string(th), runs * 2,
                          [](size_t r) { return 0x7E57 + r * 83; }, ""});
    points.push_back({Kind::kHonest, 0, 0.0, th});
  }
  spec.cells.push_back(
      {"collusion", runs * 2, [](size_t r) { return 0xC011 + r * 17; }, ""});
  points.push_back({Kind::kCollusion});

  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [&](const RunContext& ctx) -> util::Result<Record> {
        const Point& point = points[ctx.cell];
        auto config = PaperRunConfig(kNodes, ctx.seed);
        config.control = ctx.control;
        if (point.kind == Kind::kDetect) {
          return Detect(point, config);
        }
        agg::IpdaConfig ipda = PaperIpdaConfig(2);
        agg::IpdaRunHooks hooks;
        std::shared_ptr<bool> hit_red, hit_blue;
        if (point.kind == Kind::kHonest) {
          ipda.threshold = point.th;
        } else {
          util::Rng rng(ctx.run + 1);
          attack::CollusionConfig collusion;
          collusion.colluders = attack::SampleColluders(kNodes, 30, rng);
          auto attack_hooks =
              attack::MakeCoordinatedPollution(collusion, 40.0);
          hooks.pollution = attack_hooks.hook;
          hit_red = attack_hooks.hit_red;
          hit_blue = attack_hooks.hit_blue;
        }
        IPDA_ASSIGN_OR_RETURN(
            const agg::IpdaRunResult run,
            agg::RunIpda(config, *function, *field, ipda, hooks));
        const agg::IntegrityDecision& decision = run.stats.decision;
        Record record;
        if (point.kind == Kind::kHonest) {
          return record.Set("diff", decision.max_component_diff)
              .Set("rejected", !decision.accepted);
        }
        // Collusion: "accepted" only for runs with colluders on both
        // trees, so its count is those runs and its total the evasions.
        if (*hit_red && *hit_blue) record.Set("accepted", decision.accepted);
        return record;
      });

  PrintHeader("§IV-A-4 / §III-D — integrity: pollution detection and "
              "polluter localization",
              "detection rate, Th trade-off, O(log N) localization");
  // 1 + 2: detection rate vs delta and attacker count.
  stats::Table detect({"attackers", "delta", "polluted runs",
                       "detected", "rate"});
  size_t cell = 0;
  for (; points[cell].kind == Kind::kDetect; ++cell) {
    const FieldFold& rejected = result.Get(cell, "rejected");
    const size_t polluted = rejected.count();
    const size_t detected = rejected.total();
    detect.AddRow(
        {stats::FormatInt(static_cast<long long>(points[cell].attackers)),
         stats::FormatDouble(points[cell].delta, 0),
         stats::FormatInt(static_cast<long long>(polluted)),
         stats::FormatInt(static_cast<long long>(detected)),
         polluted == 0
             ? "-"
             : stats::FormatDouble(static_cast<double>(detected) /
                                       static_cast<double>(polluted),
                                   2)});
  }
  std::printf("Detection of tampering (Th = 5; deltas beyond Th must be "
              "caught):\n");
  detect.PrintTo(stdout);

  // 3: honest-round false rejects vs Th.
  std::printf("\nHonest rounds rejected vs Th (loss tolerance; paper "
              "recommends Th=5):\n");
  stats::Table th_table({"Th", "honest rounds", "rejected", "max |diff|"});
  for (; points[cell].kind == Kind::kHonest; ++cell) {
    char max_diff[32];
    std::snprintf(max_diff, sizeof(max_diff), "%.2e",
                  result.Get(cell, "diff").summary.max());
    th_table.AddRow(
        {stats::FormatDouble(points[cell].th, 0),
         stats::FormatInt(static_cast<long long>(runs * 2)),
         stats::FormatInt(
             static_cast<long long>(result.Get(cell, "rejected").total())),
         max_diff});
  }
  th_table.PrintTo(stdout);

  // 4: localization rounds. Excluding half the sensors halves density, so
  // rounds run with HELLO repeats to keep the polluter covered — at low
  // density an active-but-uncovered polluter makes an "accepted" round
  // ambiguous and bisection can chase the wrong half.
  std::printf("\nPersistent-polluter localization (§III-D, O(log N); "
              "impatient join on):\n");
  stats::Table loc_table({"N", "polluter", "rounds", "log2(N)", "found"});
  for (size_t n : {400u, 500u, 600u}) {
    const net::NodeId polluter = static_cast<net::NodeId>(n / 3);
    size_t rounds = 0;
    attack::RoundFn round_fn =
        [&](const std::vector<net::NodeId>& excluded,
            uint64_t) -> util::Result<bool> {
      ++rounds;
      attack::PollutionConfig attack_config;
      attack_config.attackers = {polluter};
      attack_config.additive_delta = 50.0;
      agg::IpdaRunHooks hooks;
      hooks.pollution = attack::MakePollutionHook(attack_config);
      hooks.excluded = excluded;
      agg::IpdaConfig round_ipda = PaperIpdaConfig(2);
      round_ipda.impatient_join = true;
      auto round = agg::RunIpda(PaperRunConfig(n, 0xD05 + n), *function,
                                *field, round_ipda, hooks);
      IPDA_RETURN_IF_ERROR(round.status());
      return round->stats.decision.accepted;
    };
    attack::PolluterLocalizer localizer(n);
    auto located = localizer.Locate(round_fn);
    if (!located.ok()) return 1;
    loc_table.AddRow(
        {stats::FormatInt(static_cast<long long>(n)),
         stats::FormatInt(polluter),
         stats::FormatInt(static_cast<long long>(rounds)),
         stats::FormatDouble(std::log2(static_cast<double>(n)), 1),
         located->found && located->suspect == polluter ? "yes (correct)"
                                                        : "NO"});
  }
  loc_table.PrintTo(stdout);

  // 5: collusion limitation (§VI future work).
  std::printf("\nDocumented limitation — coordinated collusion across "
              "both trees (§VI):\n");
  const FieldFold& both = result.Get(cell, "accepted");
  std::printf("  colluders on both trees in %zu runs; Th check evaded in "
              "%zu of them\n  (identical deltas on disjoint trees defeat "
              "redundancy, as the paper anticipates).\n",
              both.count(), both.total());
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
