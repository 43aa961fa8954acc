// ipda_sim: command-line driver for one-off aggregation experiments.
//
//   $ ipda_sim --protocol=ipda --nodes=500 --function=average --l=2
//              [--runs=10 --seed=1 --csv]
//   $ ipda_sim --protocol=tag --nodes=300 --function=sum
//   $ ipda_sim --nodes=400 --dot-out=/tmp/trees.dot   # Render with neato.
//
// Prints one row per run plus a summary; --csv switches to
// machine-readable output.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/export.h"
#include "agg/ipda/config.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "agg/shard/sharded.h"
#include "exp/engine.h"
#include "exp/resilient.h"
#include "fault/churn_plan.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/signal.h"

namespace ipda {
namespace {

std::unique_ptr<agg::AggregateFunction> MakeFunction(
    const std::string& name) {
  if (name == "count") return agg::MakeCount();
  if (name == "sum") return agg::MakeSum();
  if (name == "average") return agg::MakeAverage();
  if (name == "variance") return agg::MakeVariance();
  if (name == "max") return agg::MakePowerMeanExtremum(32.0);
  if (name == "min") return agg::MakePowerMeanExtremum(-32.0);
  return nullptr;
}

int Main(int argc, char** argv) {
  util::FlagSet flags;
  flags.DefineString("protocol", "ipda",
                     "ipda | tag | smart | cpda | kipda (max/min only)");
  flags.DefineInt("nodes", 400, "deployment size incl. base station");
  flags.DefineDouble("area", 400.0, "square side in meters");
  flags.DefineDouble("range", 50.0, "radio range in meters");
  flags.DefineString("function", "count",
                     "count|sum|average|variance|max|min");
  flags.DefineDouble("reading-lo", 15.0, "uniform sensor reading lower");
  flags.DefineDouble("reading-hi", 30.0, "uniform sensor reading upper");
  flags.DefineInt("l", 2, "iPDA slices per reading");
  flags.DefineDouble("th", 5.0, "iPDA acceptance threshold Th");
  flags.DefineDouble("slice-range", 0.0,
                     "slice noise range (0 = auto from readings)");
  flags.DefineBool("adaptive", false, "adaptive role probabilities (Eq.1)");
  flags.DefineBool("impatient", false, "impatient-join extension");
  flags.DefineBool("encrypt", true, "link-encrypt slices");
  flags.DefineString("faults", "",
                     "fault spec: crash=<id>@<s>, recover=<id>@<s>, "
                     "crash-frac=<f>@<s>, loss=<p>, dup=<p>, jitter=<ms>; "
                     "comma-separated");
  flags.DefineBool("failover", false,
                   "iPDA failure resilience (slice retargeting + parent "
                   "failover + round deadline)");
  flags.DefineString("churn", "",
                     "churn spec: join=<id>@<s>, leave=<id>@<s>, "
                     "move=<id>:<x>:<y>:<v>@<s>, churn=<rate>[:<down_s>], "
                     "mobility=<frac>:<v>; comma-separated");
  flags.DefineString("churn-policy", "none",
                     "iPDA response to --churn events: none | repair "
                     "(incremental disjoint-tree self-healing) | rebuild "
                     "(throttled full HELLO re-flood)");
  flags.DefineInt("sinks", 1,
                  "base stations; >1 shards the deployment across a "
                  "Voronoi partition of sinks and merges per-shard "
                  "aggregates at a top-level sink (ipda only)");
  flags.DefineInt("runs", 5, "independent runs");
  flags.DefineInt("seed", 1, "base seed (run i uses seed+i)");
  flags.DefineInt("jobs", 0,
                  "worker threads for the runs (0 = all hardware "
                  "threads); output is identical for any value");
  flags.DefineString("journal", "",
                     "append-only JSONL run journal; completed runs are "
                     "fsynced so a killed invocation is resumable");
  flags.DefineString("resume", "",
                     "journal from an interrupted invocation; completed "
                     "runs replay byte-identically, the rest execute");
  flags.DefineDouble("run-deadline", 0.0,
                     "wall-clock seconds per run attempt before the "
                     "watchdog cancels it (0 = no watchdog)");
  flags.DefineInt("event-budget", 0,
                  "max simulator events per run attempt (0 = unlimited; "
                  "deterministic, unlike --run-deadline)");
  flags.DefineInt("max-retries", 0,
                  "failed-run retries with a forked seed before the run "
                  "is recorded as a permanent failure");
  flags.DefineBool("csv", false, "machine-readable output");
  flags.DefineString("metrics", "",
                     "write per-run metrics snapshots (counters, gauges, "
                     "histograms, phase spans) as JSONL; see EXPERIMENTS.md");
  flags.DefineString("dot-out", "",
                     "write the constructed trees as Graphviz DOT "
                     "(ipda, first run only)");
  flags.DefineString("roles-out", "",
                     "write per-node roles as CSV (ipda, first run only)");
  flags.DefineBool("help", false, "show usage");

  if (auto status = flags.Parse(argc - 1, argv + 1); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fputs(flags.Usage(argv[0]).c_str(), stdout);
    return 0;
  }
  // Count flags are read through unsigned casts below; reject what would
  // wrap (a negative --runs used to abort in vector allocation).
  const std::pair<const char*, uint64_t> count_flags[] = {
      {"nodes", UINT32_MAX}, {"runs", UINT32_MAX},
      {"sinks", UINT32_MAX}, {"l", UINT32_MAX},
      {"max-retries", UINT32_MAX}, {"event-budget", INT64_MAX}};
  for (const auto& [name, max] : count_flags) {
    if (const auto count = flags.GetCount(name, max); !count.ok()) {
      std::fprintf(stderr, "%s\n", count.status().ToString().c_str());
      return 2;
    }
  }
  // Real-valued flags a CHECK inside the round would otherwise abort on
  // (area, range), or that NaN/inf would silently disarm (run-deadline)
  // or turn into a NaN answer (th, slice-range).
  const std::pair<const char*, bool> finite_flags[] = {
      {"area", true}, {"range", true}, {"run-deadline", false},
      {"th", false}, {"slice-range", false}};
  for (const auto& [name, positive] : finite_flags) {
    if (const auto value = flags.GetFinite(name, positive); !value.ok()) {
      std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
      return 2;
    }
  }
  // Readings may be negative, but must be finite and ordered: the
  // uniform field and KIPDA's value range CHECK both.
  const double reading_lo = flags.GetDouble("reading-lo");
  const double reading_hi = flags.GetDouble("reading-hi");
  if (!std::isfinite(reading_lo) || !std::isfinite(reading_hi) ||
      reading_lo > reading_hi) {
    std::fprintf(stderr, "--reading-lo=%g --reading-hi=%g: need finite "
                 "lo <= hi\n", reading_lo, reading_hi);
    return 2;
  }

  const std::string protocol = flags.GetString("protocol");
  auto function = MakeFunction(flags.GetString("function"));
  if (function == nullptr) {
    std::fprintf(stderr, "unknown --function=%s\n",
                 flags.GetString("function").c_str());
    return 2;
  }
  const bool counting = flags.GetString("function") == "count";
  auto field = counting
                   ? agg::MakeConstantField(1.0)
                   : agg::MakeUniformField(
                         reading_lo, reading_hi,
                         static_cast<uint64_t>(flags.GetInt("seed")));

  agg::RunConfig config;
  config.deployment.node_count =
      static_cast<size_t>(flags.GetInt("nodes"));
  config.deployment.area =
      net::Area{flags.GetDouble("area"), flags.GetDouble("area")};
  config.range = flags.GetDouble("range");
  if (const std::string spec = flags.GetString("faults"); !spec.empty()) {
    auto plan = fault::ParseFaultSpec(spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "bad --faults: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    config.faults = *plan;
  }
  if (const std::string spec = flags.GetString("churn"); !spec.empty()) {
    auto plan = fault::ParseChurnSpec(spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "bad --churn: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    config.churn = *plan;
  }

  agg::IpdaConfig ipda;
  ipda.slice_count = static_cast<uint32_t>(flags.GetInt("l"));
  ipda.threshold = flags.GetDouble("th");
  ipda.adaptive_roles = flags.GetBool("adaptive");
  ipda.impatient_join = flags.GetBool("impatient");
  ipda.encrypt_slices = flags.GetBool("encrypt");
  if (flags.GetBool("failover")) {
    ipda.retarget_slices = true;
    ipda.parent_failover = true;
  }
  if (const std::string policy = flags.GetString("churn-policy");
      policy == "repair") {
    ipda.churn_response = agg::ChurnResponse::kRepair;
  } else if (policy == "rebuild") {
    ipda.churn_response = agg::ChurnResponse::kRebuild;
  } else if (policy != "none") {
    std::fprintf(stderr, "unknown --churn-policy=%s\n", policy.c_str());
    return 2;
  }
  // The automatic range covers the largest reading magnitude, so an
  // all-negative interval still yields a positive range.
  const double slice_range = flags.GetDouble("slice-range");
  const double reading_span =
      std::max(std::fabs(reading_lo), std::fabs(reading_hi));
  ipda.slice_range = slice_range > 0.0
                         ? slice_range
                         : (counting || reading_span == 0.0 ? 1.0
                                                            : reading_span);

  const bool csv = flags.GetBool("csv");
  const size_t runs = static_cast<size_t>(flags.GetInt("runs"));
  const uint64_t base_seed = static_cast<uint64_t>(flags.GetInt("seed"));

  if (protocol != "tag" && protocol != "smart" && protocol != "cpda" &&
      protocol != "kipda" && protocol != "ipda") {
    std::fprintf(stderr, "unknown --protocol=%s\n", protocol.c_str());
    return 2;
  }
  if (protocol == "kipda") {
    const std::string fn = flags.GetString("function");
    if (fn != "max" && fn != "min") {
      std::fprintf(stderr, "kipda computes max or min only\n");
      return 2;
    }
  }
  // Baseline configs derive from the same flags; each is validated up
  // front so a bad value exits 2 instead of tripping the constructor's
  // CHECK inside a run.
  agg::SmartConfig smart;
  smart.slice_count =
      static_cast<uint32_t>(flags.GetInt("l")) + 1;  // J = l+1 pieces.
  smart.slice_range = ipda.slice_range;
  smart.encrypt_slices = ipda.encrypt_slices;
  agg::CpdaConfig cpda;
  cpda.encrypt_shares = ipda.encrypt_slices;
  agg::KipdaConfig kipda;
  kipda.maximize = flags.GetString("function") == "max";
  kipda.value_floor = reading_lo - 1.0;
  kipda.value_ceiling = reading_hi + 1.0;
  if (const util::Status status =
          protocol == "ipda"    ? agg::ValidateIpdaConfig(ipda)
          : protocol == "smart" ? agg::ValidateSmartConfig(smart)
          : protocol == "cpda"  ? agg::ValidateCpdaConfig(cpda)
          : protocol == "kipda" ? agg::ValidateKipdaConfig(kipda)
                                : util::OkStatus();
      !status.ok()) {
    std::fprintf(stderr, "bad %s flags: %s\n", protocol.c_str(),
                 status.ToString().c_str());
    return 2;
  }
  const size_t sinks = static_cast<size_t>(flags.GetInt("sinks"));
  if (sinks == 0) {
    std::fprintf(stderr, "--sinks must be >= 1\n");
    return 2;
  }
  if (sinks > 1 && protocol != "ipda") {
    std::fprintf(stderr, "--sinks=%zu requires --protocol=ipda\n", sinks);
    return 2;
  }
  if (!config.churn.empty() && protocol != "ipda") {
    std::fprintf(stderr, "--churn requires --protocol=ipda\n");
    return 2;
  }
  if (sinks > 1 && (!config.faults.empty() || !config.churn.empty())) {
    std::fprintf(stderr,
                 "--faults/--churn are not supported with --sinks > 1\n");
    return 2;
  }
  if (sinks > 1 && !flags.GetString("metrics").empty()) {
    // Each shard has its own registry and no merged snapshot exists, so
    // the file would hold only its header line.
    std::fprintf(stderr, "--metrics is not supported with --sinks > 1\n");
    return 2;
  }

  // Every run is shared-nothing (own Simulator, own Network), so the runs
  // fan across the engine; the ordered fold below keeps output identical
  // for any --jobs value. The resilient executor adds journaling, retry
  // and drain on top without touching that contract: attempt-0 seeds stay
  // base_seed + r via base_seed_fn.
  struct RunOutcome {
    double result = 0.0;
    double truth = 0.0;
    double accuracy = 0.0;
    uint64_t bytes = 0;
    bool accepted = true;
    bool degraded = false;
  };
  util::InstallDrainHandler();
  exp::Engine engine(exp::ResolveJobs(flags.GetInt("jobs")));

  // Per-run metrics side channel. Each body writes only its own slot
  // (shared-nothing, like the payloads), and the ordered emission below
  // joins them after the sweep — so the file's bytes are identical for
  // any --jobs value. Runs replayed from a resume journal never execute
  // a body and leave their slot empty; the header's run count lets a
  // reader detect the gap.
  const std::string metrics_path = flags.GetString("metrics");
  std::vector<std::string> metrics_lines(runs);

  exp::ResilientOptions resilience;
  resilience.sweep_seed = base_seed;
  resilience.event_budget =
      static_cast<uint64_t>(flags.GetInt("event-budget"));
  resilience.run_deadline_s = flags.GetDouble("run-deadline");
  resilience.max_retries = static_cast<uint32_t>(flags.GetInt("max-retries"));
  resilience.journal_path = flags.GetString("journal");
  resilience.resume_path = flags.GetString("resume");
  resilience.experiment = "ipda_sim";
  // Everything result-affecting goes into the digest; scheduling and
  // output-shape flags stay out so e.g. --jobs may differ across resume.
  resilience.config_digest = "ipda_sim|" + flags.Canonical({
                                 "jobs", "journal", "resume", "run-deadline",
                                 "csv", "dot-out", "roles-out", "metrics",
                                 "help"});
  resilience.base_seed_fn = [base_seed](size_t, size_t r) {
    return base_seed + r;
  };

  const auto body =
      [&](const exp::AttemptContext& ctx) -> util::Result<std::string> {
    agg::RunConfig run_config = config;
    run_config.seed = ctx.seed;
    run_config.control.cancel = ctx.cancel;
    run_config.control.event_budget = ctx.event_budget;
    RunOutcome out;
    // Stashes the run's registry snapshot in its side-channel slot.
    const auto stash_metrics = [&](const obs::Snapshot& snapshot) {
      if (metrics_path.empty()) return;
      metrics_lines[ctx.run] =
          obs::SnapshotJsonLine(snapshot, ctx.run, ctx.seed);
    };
    // Copies a finished round into the outcome. KIPDA's truth is the
    // true extreme; the sharded round has no metrics side channel (each
    // shard has its own registry, and a merged snapshot would mean
    // nothing).
    const auto fill = [&](const auto& run) {
      out.result = run.result;
      out.truth = protocol == "kipda" ? run.true_acc[0]
                                      : function->Finalize(run.true_acc);
      out.accuracy = run.accuracy;
      out.bytes = run.traffic.bytes_sent;
      if constexpr (requires { run.metrics; }) stash_metrics(run.metrics);
    };
    if (protocol == "tag") {
      IPDA_ASSIGN_OR_RETURN(const auto run,
                            agg::RunTag(run_config, *function, *field));
      fill(run);
    } else if (protocol == "smart") {
      IPDA_ASSIGN_OR_RETURN(
          const auto run, agg::RunSmart(run_config, *function, *field, smart));
      fill(run);
    } else if (protocol == "cpda") {
      IPDA_ASSIGN_OR_RETURN(
          const auto run, agg::RunCpda(run_config, *function, *field, cpda));
      fill(run);
    } else if (protocol == "kipda") {
      IPDA_ASSIGN_OR_RETURN(const auto run,
                            agg::RunKipda(run_config, *field, kipda));
      fill(run);
    } else if (sinks > 1) {  // sharded ipda
      agg::ShardedConfig sharded;
      sharded.sinks = sinks;
      IPDA_ASSIGN_OR_RETURN(const auto run,
                            agg::RunShardedIpda(run_config, *function,
                                                *field, ipda, sharded));
      fill(run);
      out.accepted = run.decision.accepted;
      out.degraded = run.degraded;
    } else {  // ipda
      IPDA_ASSIGN_OR_RETURN(
          const auto run, agg::RunIpda(run_config, *function, *field, ipda));
      fill(run);
      out.accepted = run.stats.decision.accepted;
      out.degraded = run.stats.degraded;
    }
    // "%.17g" round-trips doubles exactly, so replayed runs print the
    // same bytes a live run would.
    char buf[200];
    std::snprintf(buf, sizeof(buf), "%.17g,%.17g,%.17g,%llu,%d,%d",
                  out.result, out.truth, out.accuracy,
                  static_cast<unsigned long long>(out.bytes),
                  out.accepted ? 1 : 0, out.degraded ? 1 : 0);
    return std::string(buf);
  };

  auto swept = exp::RunResilientSweep(engine, {protocol}, runs, resilience,
                                      body);
  if (!swept.ok()) {
    std::fprintf(stderr, "%s\n", swept.status().ToString().c_str());
    return 1;
  }
  const exp::ResilientReport& report = *swept;
  if (report.drained) {
    std::fprintf(stderr,
                 "drained with %zu/%zu runs journaled; resume with: %s "
                 "--resume %s\n",
                 report.replayed + report.executed, report.runs.size(),
                 argv[0],
                 report.journal_path.empty() ? "<journal>"
                                             : report.journal_path.c_str());
    return util::kDrainExitCode;
  }

  if (!metrics_path.empty()) {
    std::FILE* mf = std::fopen(metrics_path.c_str(), "w");
    if (mf == nullptr) {
      std::fprintf(stderr, "cannot write --metrics file %s\n",
                   metrics_path.c_str());
      return 1;
    }
    const std::string header =
        obs::MetricsHeaderLine("ipda_sim", runs, base_seed);
    std::fwrite(header.data(), 1, header.size(), mf);
    // Runs emit in index order regardless of completion order; replayed
    // (--resume) and permanently failed runs have empty slots and emit
    // nothing.
    for (size_t r = 0; r < runs; ++r) {
      std::fwrite(metrics_lines[r].data(), 1, metrics_lines[r].size(), mf);
    }
    std::fclose(mf);
  }

  stats::Summary accuracy, bytes, result_summary;
  size_t accepted = 0;
  if (csv) {
    std::printf("run,seed,result,truth,accuracy,accepted,degraded,bytes\n");
  }
  for (size_t r = 0; r < runs; ++r) {
    const exp::RunStatus& slot = report.runs[r];
    RunOutcome out;
    int out_accepted = 0;
    int out_degraded = 0;
    unsigned long long out_bytes = 0;
    if (!slot.ok ||
        std::sscanf(slot.payload.c_str(), "%lg,%lg,%lg,%llu,%d,%d",
                    &out.result, &out.truth, &out.accuracy, &out_bytes,
                    &out_accepted, &out_degraded) != 6) {
      std::fprintf(stderr, "run %zu failed permanently (%u attempts): %s\n",
                   r, slot.attempts, slot.payload.c_str());
      continue;
    }
    out.bytes = out_bytes;
    out.accepted = out_accepted != 0;
    out.degraded = out_degraded != 0;
    accuracy.Add(out.accuracy);
    bytes.Add(static_cast<double>(out.bytes));
    result_summary.Add(out.result);
    accepted += out.accepted ? 1 : 0;
    if (csv) {
      std::printf("%zu,%llu,%.6f,%.6f,%.6f,%d,%d,%llu\n", r,
                  static_cast<unsigned long long>(slot.seed),
                  out.result, out.truth, out.accuracy,
                  out.accepted ? 1 : 0, out.degraded ? 1 : 0,
                  static_cast<unsigned long long>(out.bytes));
    } else {
      std::printf("run %2zu: %s = %.4f (truth %.4f, accuracy %.4f) %s%s, "
                  "%llu bytes\n",
                  r, function->name().c_str(), out.result, out.truth,
                  out.accuracy, out.accepted ? "accepted" : "REJECTED",
                  out.degraded ? " (degraded)" : "",
                  static_cast<unsigned long long>(out.bytes));
    }
  }

  const std::string dot_path = flags.GetString("dot-out");
  const std::string roles_path = flags.GetString("roles-out");
  if (protocol == "ipda" && runs > 0 &&
      (!dot_path.empty() || !roles_path.empty())) {
    // Re-run run 0's round, faults and churn included, and export its
    // trees and roles as they stood when it finished.
    agg::RunConfig run_config = config;
    run_config.seed = base_seed;
    std::string dot, roles;
    agg::IpdaRunHooks hooks;
    hooks.finished = [&](const agg::IpdaProtocol& live,
                         const net::Topology& topology) {
      dot = agg::IpdaTreesToDot(live, topology);
      roles = agg::IpdaRolesToCsv(live, topology);
    };
    util::Status status =
        agg::RunIpda(run_config, *function, *field, ipda, hooks).status();
    if (status.ok() && !dot_path.empty()) {
      status = agg::WriteTextFile(dot_path, dot);
    }
    if (status.ok() && !roles_path.empty()) {
      status = agg::WriteTextFile(roles_path, roles);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!csv) {
    // FormatDegradedMeanCi prints the plain CI when every run survived;
    // with permanent failures it widens the interval and appends
    // " [n=<effective>/<requested>]".
    std::printf("\n%zu runs: accuracy %s, %zu accepted, mean %.1f bytes\n",
                runs,
                stats::FormatDegradedMeanCi(accuracy, runs, 4).c_str(),
                accepted, bytes.mean());
  }
  return report.failed > 0 ? 1 : 0;
}

}  // namespace
}  // namespace ipda

int main(int argc, char** argv) { return ipda::Main(argc, argv); }
