// roundbench: host cost of simulated iPDA rounds, end to end and by layer.
//
//   roundbench --workload NAME --seed N --seconds S --trace 0|1
//              --expected FILE --workdir DIR
//   roundbench --workload NAME --setup-only 1 --expected FILE --workdir DIR
//   roundbench --workload NAME --write-expected FILE --workdir DIR
//
// One process runs one workload, single-threaded and closed-loop (the
// next round starts when the previous one returns). Before each round it
// times the frozen reference kernel (ref_kernel.h). Reported times are
// at nominal host speed: each round's raw time is scaled by
// (kNominalRefUnitMs / reference unit time next to it)^exponent, where
// the exponent is the workload's measured sensitivity to host speed
// (Workload::ref_exponent). The same figures with exponent 1 (the plain
// ratio) are printed on a line of their own, and raw wall times are
// reported as host.* per-layer figures. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Every round's outcome is checked against FILE.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ref_kernel.h"
#include "span_log.h"
#include "util/random.h"
#include "workloads.h"

namespace roundbench {
namespace {

using Clock = std::chrono::steady_clock;

// One reference unit's time at nominal host speed, in ms. Committed with
// the kernel; changing either rescales every normalized figure.
constexpr double kNominalRefUnitMs = 1.0;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// `raw_ms` at nominal host speed, given the reference unit time measured
// next to it and the workload's sensitivity exponent.
double Normalize(double raw_ms, double ref_unit_ms, double exponent) {
  return raw_ms * std::pow(kNominalRefUnitMs / ref_unit_ms, exponent);
}

double PeakRssMib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expected;
  std::string write_expected;
  std::string workdir = ".";
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--expected") {
      args->expected = value;
    } else if (flag == "--write-expected") {
      args->write_expected = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--setup-only") {
      args->setup_only = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (!args->expected.empty() || !args->write_expected.empty());
}

// Times `units` reference units; returns ms per unit. A wrong checksum
// means a miscompiled kernel, whose timings would be meaningless.
double TimeReference(int units, bool* intact) {
  const auto t0 = Clock::now();
  const uint64_t checksum = RunReferenceUnits(units);
  const double ms = Ms(t0, Clock::now());
  if (checksum != ReferenceUnitChecksum()) *intact = false;
  return ms / units;
}

// The referee's running score plus the layer-coverage tallies.
struct Tally {
  size_t attempted = 0;
  size_t ok = 0;
  uint64_t injected_drops = 0;
  uint64_t retargets = 0;
  uint64_t grafts = 0;
  size_t degraded = 0;
  size_t short_shard_rounds = 0;  // Rounds with fewer live shards.

  double ok_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(ok) / attempted;
  }
};

void Score(const Expectations& expected,
           const std::vector<BatchRecord>& records, size_t shards,
           Tally* tally) {
  for (const BatchRecord& record : records) {
    ++tally->attempted;
    if (!record.ok) {
      std::fprintf(stderr, "round seed %llu failed: %s\n",
                   static_cast<unsigned long long>(record.round.seed),
                   record.error.c_str());
      continue;
    }
    const RoundResult& r = record.round;
    const auto want = expected.find(r.seed);
    if (want != expected.end() && OutcomesMatch(r.outcome, want->second)) {
      ++tally->ok;
    } else {
      std::fprintf(stderr, "round seed %llu: outcome %s does not match\n",
                   static_cast<unsigned long long>(r.seed),
                   FormatOutcome(r.outcome).c_str());
    }
    tally->injected_drops += r.coverage.injected_drops;
    tally->retargets += r.coverage.retargets;
    tally->grafts += r.coverage.grafts;
    tally->degraded += r.outcome.degraded ? 1 : 0;
    if (r.coverage.live_shards < shards) ++tally->short_shard_rounds;
  }
}

// Layer-coverage assertions: a workload must exercise the layer it
// exists for. Returns the failed assertion, or "" when all hold.
std::string CoverageFailure(const std::string& workload, const Tally& t) {
  if (workload == "sweep_faults_churn_n300") {
    if (t.injected_drops == 0) return "no injected drops";
    if (t.retargets == 0) return "no slice retargets";
    if (t.grafts == 0) return "no churn grafts";
    if (t.degraded == 0) return "no degraded rounds";
  }
  if (workload == "city_25k_s8" && t.short_shard_rounds > 0) {
    return "a round ran fewer than 8 live shards";
  }
  return "";
}

size_t ExpectedShards(const std::string& workload) {
  return workload == "city_25k_s8" ? 8 : 1;
}

// Round seeds in run order: the pool, rotated by the run's seed.
class SeedCursor {
 public:
  SeedCursor(const std::vector<uint64_t>& pool, uint64_t seed)
      : pool_(pool),
        next_(static_cast<size_t>(ipda::util::Mix64(seed, 0x52B) %
                                  pool.size())) {}

  std::vector<uint64_t> Take(size_t n) {
    std::vector<uint64_t> out;
    for (size_t i = 0; i < n; ++i) {
      out.push_back(pool_[next_]);
      next_ = (next_ + 1) % pool_.size();
    }
    return out;
  }

 private:
  const std::vector<uint64_t>& pool_;
  size_t next_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.attempted - tally.ok);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// Reference units timed on each side of a setup, at least: enough for a
// steady estimate of host speed next to a setup of a few tens of ms.
constexpr int kSetupRefUnits = 20;

// The cold setup of this process in seconds, at nominal host speed.
struct SetupTime {
  double s = 0.0;        // With the workload's exponent.
  double plain_s = 0.0;  // With exponent 1.
};

// Builds the workload once -- inputs, up-front deployments and one
// untimed warm-up round -- between two reference runs, in a process that
// has run no round yet, so first-use costs (static tables, allocator
// growth, first-touch page faults) count. This is everything a user pays
// before the first round. The warm-up round is always the pool's first
// seed, so every run sets up the same work; it is a plain one-call round
// (the sweep's journal belongs to each timed batch, not to setup).
// `probe` supplies the workload's settings; the build is left in
// `*workload`.
ipda::util::Result<SetupTime> ColdSetup(const Args& args,
                                        const Expectations& expected,
                                        const Workload& probe,
                                        std::unique_ptr<Workload>* workload,
                                        Tally* warmup, bool* intact) {
  const int units = std::max(probe.ref_units(), kSetupRefUnits);
  const double before = TimeReference(units, intact);
  const auto t0 = Clock::now();
  IPDA_ASSIGN_OR_RETURN(*workload,
                        Workload::Create(args.workload, args.workdir));
  IPDA_RETURN_IF_ERROR((*workload)->Setup());
  const uint64_t seed = (*workload)->pool().front();
  auto round = (*workload)->OneCall(seed);
  const double raw_ms = Ms(t0, Clock::now());
  const double after = TimeReference(units, intact);
  BatchRecord record;
  record.ok = round.ok();
  if (round.ok()) {
    record.round = *std::move(round);
  } else {
    record.error = round.status().ToString();
    record.round.seed = seed;
  }
  Score(expected, {record}, ExpectedShards(args.workload), warmup);
  const double ref = 0.5 * (before + after);
  return SetupTime{Normalize(raw_ms, ref, probe.ref_exponent()) / 1000.0,
                   Normalize(raw_ms, ref, 1.0) / 1000.0};
}

// Timestamps around one round: reference start/end and round end.
struct RoundMarks {
  Clock::time_point ref_start;
  Clock::time_point ref_end;
  Clock::time_point round_end;
  int units = 1;

  double ref_unit_ms() const { return Ms(ref_start, ref_end) / units; }
  double round_ms() const { return Ms(ref_end, round_end); }
};

// Reference unit time to normalize each round by: the median of the
// reference runs within kRefWindowMs of the round's midpoint, always
// including the two that bracket it (`closing` follows the last round).
// Short rounds thus take a steady local estimate of host speed, and long
// ones the runs on either side.
constexpr double kRefWindowMs = 1000.0;

std::vector<double> RoundRefs(const std::vector<RoundMarks>& marks,
                              const RoundMarks& closing) {
  std::vector<RoundMarks> samples = marks;
  samples.push_back(closing);
  const auto mid = [](Clock::time_point a, Clock::time_point b) {
    return a + (b - a) / 2;
  };
  std::vector<double> out;
  size_t lo = 0;
  size_t hi = 0;
  for (size_t i = 0; i < marks.size(); ++i) {
    const auto at = mid(marks[i].ref_end, marks[i].round_end);
    while (lo < i && Ms(mid(samples[lo].ref_start, samples[lo].ref_end), at) >
                         kRefWindowMs) {
      ++lo;
    }
    hi = std::max(hi, i + 2);
    while (hi < samples.size() &&
           Ms(at, mid(samples[hi].ref_start, samples[hi].ref_end)) <=
               kRefWindowMs) {
      ++hi;
    }
    std::vector<double> window;
    for (size_t j = lo; j < hi; ++j) window.push_back(samples[j].ref_unit_ms());
    out.push_back(Median(window));
  }
  return out;
}

int TimedRun(const Args& args, const Expectations& expected) {
  bool intact = true;
  const auto probe = Workload::Create(args.workload, args.workdir);
  if (!probe.ok()) {
    std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
    return 2;
  }
  SeedCursor cursor((*probe)->pool(), args.seed);
  std::unique_ptr<Workload> workload;
  Tally warmup;
  const auto setup =
      ColdSetup(args, expected, **probe, &workload, &warmup, &intact);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup: %s\n", setup.status().ToString().c_str());
    return 1;
  }
  const Workload& w = *workload;
  const int units = w.ref_units();
  const size_t shards = ExpectedShards(args.workload);

  std::vector<RoundMarks> marks;
  const RoundFn timed_round = [&](uint64_t seed) {
    RoundMarks m;
    m.units = units;
    m.ref_start = Clock::now();
    if (RunReferenceUnits(units) != ReferenceUnitChecksum()) intact = false;
    m.ref_end = Clock::now();
    auto result = w.OneCall(seed);
    m.round_end = Clock::now();
    marks.push_back(m);
    return result;
  };

  Tally tally;
  const auto start = Clock::now();
  do {
    std::vector<BatchRecord> records;
    BatchStats stats;
    const ipda::util::Status batch =
        workload->RunBatch(cursor.Take(w.batch_rounds()), timed_round, 1,
                           &records, &stats, nullptr);
    if (!batch.ok()) {
      std::fprintf(stderr, "batch: %s\n", batch.ToString().c_str());
      return 1;
    }
    Score(expected, records, shards, &tally);
  } while (Ms(start, Clock::now()) < args.seconds * 1000.0);

  RoundMarks closing;
  closing.units = units;
  closing.ref_start = Clock::now();
  if (RunReferenceUnits(units) != ReferenceUnitChecksum()) intact = false;
  closing.ref_end = Clock::now();
  const std::vector<double> round_refs = RoundRefs(marks, closing);
  const double exponent = w.ref_exponent();
  std::vector<double> round_ms;
  std::vector<double> plain_round_ms;
  std::vector<double> raw_ms;
  std::vector<double> refs;
  double work_ms = 0.0;
  double plain_work_ms = 0.0;
  for (size_t i = 0; i < marks.size(); ++i) {
    round_ms.push_back(
        Normalize(marks[i].round_ms(), round_refs[i], exponent));
    plain_round_ms.push_back(
        Normalize(marks[i].round_ms(), round_refs[i], 1.0));
    raw_ms.push_back(marks[i].round_ms());
    refs.push_back(marks[i].ref_unit_ms());
    // Everything from this reference's end to the next one's start: the
    // round plus between-round work (journal appends, folds).
    const auto next =
        i + 1 < marks.size() ? marks[i + 1].ref_start : closing.ref_start;
    const double between_ms = Ms(marks[i].ref_end, next);
    work_ms += Normalize(between_ms, round_refs[i], exponent);
    plain_work_ms += Normalize(between_ms, round_refs[i], 1.0);
  }
  std::vector<double> sorted = round_ms;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  // round_ms_tail: the highest percentile with at least ten rounds beyond
  // it, defined once that percentile reaches p90 (100 rounds). Printed,
  // not gated: on a shared host it is set by bursts of interference that
  // the reference runs do not feel (NOTES.md).
  const size_t tail_index = n >= 100 ? n - 11 : 0;

  const std::string coverage = CoverageFailure(args.workload, tally);
  if (!coverage.empty()) {
    std::fprintf(stderr, "layer coverage failed: %s\n", coverage.c_str());
  }
  if (!intact) std::fprintf(stderr, "reference kernel checksum mismatch\n");
  const bool correct = intact && coverage.empty() &&
                       tally.ok == tally.attempted &&
                       warmup.ok == warmup.attempted;

  std::printf("workload %s seed %llu: %zu rounds in %.2f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), n,
              Ms(start, closing.ref_start) / 1000.0);
  if (n >= 100) {
    std::printf("round_ms_tail: %.3f ms (p%.1f of %zu rounds, %zu beyond)\n",
                sorted[tail_index],
                100.0 * static_cast<double>(tail_index + 1) / n, n,
                n - 1 - tail_index);
  } else {
    std::printf("round_ms_tail: undefined (%zu rounds; needs 100 for a "
                "percentile of p90 with ten beyond)\n",
                n);
  }
  std::printf("raw: round median %.3f ms, reference unit median %.4f ms\n",
              Median(raw_ms), Median(refs));
  std::printf("plain ratio: round_ms %.6g ms, rounds_per_s %.6g 1/s, "
              "setup_s %.6g s\n",
              Median(plain_round_ms), n / (plain_work_ms / 1000.0),
              setup->plain_s);
  PrintResult(correct, tally,
              {{"round_ms", Median(round_ms), "ms"},
               {"rounds_per_s", n / (work_ms / 1000.0), "1/s"},
               {"setup_s", setup->s, "s"},
               {"peak_rss_mib", PeakRssMib(), "MiB"},
               {"ok_frac", tally.ok_frac(), "ratio"}});
  return 0;
}

// One more cold setup sample for run.py, which reports setup_s as the
// median over several fresh processes. Prints one JSON line.
int SetupOnly(const Args& args, const Expectations& expected) {
  bool intact = true;
  const auto probe = Workload::Create(args.workload, args.workdir);
  if (!probe.ok()) {
    std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload;
  Tally warmup;
  const auto setup =
      ColdSetup(args, expected, **probe, &workload, &warmup, &intact);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup: %s\n", setup.status().ToString().c_str());
    return 1;
  }
  if (!intact) std::fprintf(stderr, "reference kernel checksum mismatch\n");
  std::printf("{\"setup_s\": %.17g, \"setup_s_plain\": %.17g, "
              "\"correct\": %s}\n",
              setup->s, setup->plain_s,
              intact && warmup.ok == warmup.attempted ? "true" : "false");
  return 0;
}

// Raw figures of one traced round.
struct TracedRound {
  uint64_t id = 0;  // Round id in the span log.
  double round_ms = 0.0;
  std::map<std::string, double> counts;
  std::map<std::string, double> self_ms;  // Self time per span name.
};

// Raw exp-layer figures of one traced sweep batch, per run.
struct TracedSweep {
  uint64_t id = 0;  // Batch id in the span log.
  double runs = 0.0;
  double overhead_ms = 0.0;
  double fold_ms = 0.0;
  double journal_bytes = 0.0;
  double spill_runs = 0.0;  // Per batch.
};

int TracedRun(const Args& args, const Expectations& expected) {
  bool intact = true;
  const auto probe = Workload::Create(args.workload, args.workdir);
  if (!probe.ok()) {
    std::fprintf(stderr, "%s\n", probe.status().ToString().c_str());
    return 2;
  }
  const std::vector<uint64_t>& pool = (*probe)->pool();
  SeedCursor cursor(pool, args.seed);
  std::unique_ptr<Workload> workload;
  Tally tally;
  const auto setup =
      ColdSetup(args, expected, **probe, &workload, &tally, &intact);
  if (!setup.ok()) {
    std::fprintf(stderr, "setup: %s\n", setup.status().ToString().c_str());
    return 1;
  }
  Workload& w = *workload;
  const int units = w.ref_units();
  const size_t shards = ExpectedShards(args.workload);
  SpanLog log;

  // Equivalence self-test: the stepped round must be the one-call round.
  const uint64_t first = pool.front();
  log.set_round(0);
  const auto one_call = w.OneCallDigest(first);
  const auto stepped = w.Stepped(first, log);
  const bool equivalent =
      one_call.ok() && stepped.ok() && *one_call == stepped->digest;
  if (!equivalent) {
    std::fprintf(stderr,
                 "EQUIVALENCE SELF-TEST FAILED for %s seed %llu: the "
                 "stepped round differs from the one-call round\n"
                 "one-call: %s\nstepped:  %s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(first),
                 one_call.ok() ? one_call->c_str()
                               : one_call.status().ToString().c_str(),
                 stepped.ok() ? stepped->digest.c_str()
                              : stepped.status().ToString().c_str());
  }

  // Referee self-test: one perturbed expectation must cost ok_frac.
  bool referee_ok = false;
  if (stepped.ok()) {
    const std::vector<BatchRecord> records = {
        BatchRecord{true, "", stepped->round}};
    Expectations perturbed = expected;
    perturbed[first].bytes_sent += 1;
    Tally clean;
    Tally broken;
    Score(expected, records, shards, &clean);
    std::fprintf(stderr, "referee self-test, one expectation perturbed:\n");
    Score(perturbed, records, shards, &broken);
    referee_ok = clean.ok_frac() == 1.0 && broken.ok_frac() < 1.0;
    if (!referee_ok) {
      std::fprintf(stderr, "REFEREE SELF-TEST FAILED: ok_frac %.3f with the "
                   "committed expectations, %.3f with one perturbed\n",
                   clean.ok_frac(), broken.ok_frac());
    }
  }

  // Jobs scaling through the sweep executor, at most nproc threads.
  double speedup2 = 0.0;
  double speedup4 = 0.0;
  if (w.batch_rounds() > 1) {
    const size_t nproc =
        std::max<unsigned>(1, std::thread::hardware_concurrency());
    const std::vector<uint64_t>& seeds = pool;
    const RoundFn plain = [&w](uint64_t s) { return w.OneCall(s); };
    std::map<size_t, double> wall;
    for (size_t jobs : {size_t{1}, size_t{2}, size_t{4}}) {
      const size_t threads = std::min(jobs, nproc);
      std::vector<BatchRecord> records;
      BatchStats stats;
      const auto t0 = Clock::now();
      const ipda::util::Status ran =
          w.RunBatch(seeds, plain, threads, &records, &stats, nullptr);
      wall[jobs] = Ms(t0, Clock::now());
      if (!ran.ok()) {
        std::fprintf(stderr, "jobs=%zu: %s\n", jobs, ran.ToString().c_str());
        return 1;
      }
      Score(expected, records, shards, &tally);
      std::printf("jobs %zu (%zu threads): %zu runs in %.1f ms\n", jobs,
                  threads, seeds.size(), wall[jobs]);
    }
    speedup2 = wall[1] / wall[2];
    speedup4 = wall[1] / wall[4];
  }

  // Alternate untraced and traced rounds (batches, for the sweep) so both
  // see the same host conditions.
  std::vector<double> refs;
  std::vector<double> plain_ms;
  std::vector<TracedRound> traced;
  std::vector<TracedSweep> sweeps;
  uint64_t round_id = 0;
  uint64_t batch_id = uint64_t{1} << 62;
  const RoundFn plain_round = [&](uint64_t seed) {
    refs.push_back(TimeReference(units, &intact));
    const auto t0 = Clock::now();
    auto result = w.OneCall(seed);
    plain_ms.push_back(Ms(t0, Clock::now()));
    return result;
  };
  const RoundFn traced_round =
      [&](uint64_t seed) -> ipda::util::Result<RoundResult> {
    log.set_round(++round_id);
    {
      SpanLog::Scope span(log, "host.ref");
      if (RunReferenceUnits(units) != ReferenceUnitChecksum()) intact = false;
    }
    const auto t0 = Clock::now();
    auto result = w.Stepped(seed, log);
    if (!result.ok()) return result.status();
    traced.push_back(
        TracedRound{round_id, Ms(t0, Clock::now()), result->counts, {}});
    // Replays the round's keystream volume through the public CTR path,
    // in messages of the round's mean sealed size.
    const double bytes = result->counts["crypto.keystream_bytes"];
    const double messages = result->counts["crypto.keystore_dense_hits"] +
                            result->counts["crypto.keystore_dynamic_hits"];
    {
      SpanLog::Scope span(log, "crypto.keystream_replay");
      ReplayKeystream(static_cast<uint64_t>(bytes),
                      static_cast<uint64_t>(bytes / std::max(1.0, messages)));
    }
    log.set_round(batch_id);
    return result->round;
  };

  const auto start = Clock::now();
  do {
    for (bool trace : {false, true}) {
      std::vector<BatchRecord> records;
      BatchStats stats;
      log.set_round(++batch_id);
      const ipda::util::Status ran = w.RunBatch(
          cursor.Take(w.batch_rounds()), trace ? traced_round : plain_round,
          1, &records, &stats, trace ? &log : nullptr);
      if (!ran.ok()) {
        std::fprintf(stderr, "batch: %s\n", ran.ToString().c_str());
        return 1;
      }
      Score(expected, records, shards, &tally);
      if (trace && w.batch_rounds() > 1) {
        const double runs = static_cast<double>(records.size());
        sweeps.push_back(TracedSweep{
            batch_id, runs, 0.0, stats.fold_ms / runs,
            static_cast<double>(stats.journal_bytes) / runs,
            static_cast<double>(stats.spill_runs)});
      }
    }
  } while (Ms(start, Clock::now()) < args.seconds * 1000.0);

  // Self times are derived once the run is over, outside any timed span.
  // The sweep span's self time is the executor's own work: journal
  // appends, the record sink, dispatch.
  auto self_times = log.SelfTimes();
  for (TracedRound& r : traced) {
    r.self_ms = std::move(self_times[r.id]);
    refs.push_back(r.self_ms["host.ref"] / units);
  }
  for (TracedSweep& s : sweeps) {
    s.overhead_ms = self_times[s.id]["exp.sweep"] / s.runs;
  }

  const std::string spans_path = args.workdir + "/spans-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
  const ipda::util::Status wrote = log.WriteJson(spans_path);
  if (!wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
    return 1;
  }

  // Per-layer times use the run-level scale from the median reference.
  const double scale = Normalize(1.0, Median(refs), w.ref_exponent());
  const auto median_of = [&traced](const auto& value) {
    std::vector<double> v;
    for (const TracedRound& r : traced) v.push_back(value(r));
    return Median(v);
  };
  const auto self = [&](const char* name) {
    return scale * median_of([name](const TracedRound& r) {
             const auto it = r.self_ms.find(name);
             return it == r.self_ms.end() ? 0.0 : it->second;
           });
  };
  const auto count = [&](const char* name) {
    return median_of([name](const TracedRound& r) {
      const auto it = r.counts.find(name);
      return it == r.counts.end() ? 0.0 : it->second;
    });
  };
  const auto sweep = [&sweeps](double TracedSweep::*field) {
    std::vector<double> v;
    for (const TracedSweep& s : sweeps) v.push_back(s.*field);
    return Median(v);
  };
  const double ns_per_event = scale * median_of([](const TracedRound& r) {
    double phase_ms = 0.0;
    for (const char* phase :
         {"agg.phase1", "agg.slicing", "agg.assembly", "agg.aggregation"}) {
      const auto it = r.self_ms.find(phase);
      phase_ms += it == r.self_ms.end() ? 0.0 : it->second;
    }
    const auto events = r.counts.find("sim.events_run");
    return events == r.counts.end() || events->second == 0.0
               ? 0.0
               : phase_ms * 1e6 / events->second;
  });
  const double delivered = count("net.frames_delivered");
  const double collided = count("net.frames_collided");
  const double traced_raw_ms =
      median_of([](const TracedRound& r) { return r.round_ms; });

  const std::string coverage = CoverageFailure(args.workload, tally);
  if (!coverage.empty()) {
    std::fprintf(stderr, "layer coverage failed: %s\n", coverage.c_str());
  }
  if (!intact) std::fprintf(stderr, "reference kernel checksum mismatch\n");
  const bool correct = intact && equivalent && referee_ok &&
                       coverage.empty() && tally.ok == tally.attempted;
  std::printf("traced %zu rounds, untraced %zu; equivalence %s, referee "
              "self-test %s; spans in %s\n",
              traced.size(), plain_ms.size(), equivalent ? "ok" : "FAILED",
              referee_ok ? "ok" : "FAILED", spans_path.c_str());
  PrintResult(
      correct, tally,
      {{"agg.phase1_ms", self("agg.phase1"), "ms"},
       {"agg.slicing_ms", self("agg.slicing"), "ms"},
       {"agg.assembly_ms", self("agg.assembly"), "ms"},
       {"agg.aggregation_ms", self("agg.aggregation"), "ms"},
       {"agg.start_ms", self("agg.start"), "ms"},
       {"agg.finish_ms", self("agg.finish"), "ms"},
       {"agg.teardown_ms", self("agg.teardown"), "ms"},
       {"agg.shard_partition_ms",
        self("agg.shard_partition") + self("agg.shard"), "ms"},
       {"net.topology_build_ms", self("net.topology_build"), "ms"},
       {"net.network_init_ms", self("net.network_init"), "ms"},
       {"fault.arm_ms", self("fault.arm"), "ms"},
       {"obs.collect_ms", self("obs.collect"), "ms"},
       {"crypto.keystream_replay_ms", self("crypto.keystream_replay"), "ms"},
       {"sim.events_run", count("sim.events_run"), "count"},
       {"sim.ns_per_event", ns_per_event, "ns"},
       {"sim.sched_stale_skips", count("sim.sched_stale_skips"), "count"},
       {"sim.sched_heap_capacity", count("sim.sched_heap_capacity"),
        "count"},
       {"net.frames_sent", count("net.frames_sent"), "count"},
       {"net.frames_delivered", delivered, "count"},
       {"net.frames_collided", collided, "count"},
       {"net.delivery_ratio",
        delivered + collided > 0 ? delivered / (delivered + collided) : 0.0,
        "ratio"},
       {"net.injected_drops", count("net.injected_drops"), "count"},
       {"pool.arena_allocs", count("pool.arena_allocs"), "count"},
       {"pool.arena_high_water", count("pool.arena_high_water"), "count"},
       {"crypto.keystore_dense_hits", count("crypto.keystore_dense_hits"),
        "count"},
       {"crypto.keystore_dynamic_hits",
        count("crypto.keystore_dynamic_hits"), "count"},
       {"crypto.keystream_bytes", count("crypto.keystream_bytes"), "bytes"},
       {"agg.slices_retargeted", count("agg.slices_retargeted"), "count"},
       {"agg.grafts", count("agg.grafts"), "count"},
       {"agg.backoff_retries", count("agg.backoff_retries"), "count"},
       {"exp.sweep_overhead_ms", scale * sweep(&TracedSweep::overhead_ms),
        "ms"},
       {"exp.fold_ms", scale * sweep(&TracedSweep::fold_ms), "ms"},
       {"exp.journal_bytes", sweep(&TracedSweep::journal_bytes), "bytes"},
       {"exp.spill_runs", sweep(&TracedSweep::spill_runs), "count"},
       {"exp.speedup_jobs2", speedup2, "ratio"},
       {"exp.speedup_jobs4", speedup4, "ratio"},
       {"host.ref_ms", Median(refs), "ms"},
       {"host.round_ms_raw", Median(plain_ms), "ms"},
       {"trace.overhead_frac", traced_raw_ms / Median(plain_ms) - 1.0,
        "ratio"}});
  return 0;
}

int WriteExpected(const Args& args) {
  auto created = Workload::Create(args.workload, args.workdir);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 2;
  }
  Workload& w = **created;
  if (const auto s = w.Setup(); !s.ok()) {
    std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
    return 1;
  }
  Expectations out;
  Tally tally;
  for (uint64_t seed : w.pool()) {
    auto r = w.OneCall(seed);
    if (!r.ok()) {
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   r.status().ToString().c_str());
      return 1;
    }
    out[seed] = r->outcome;
    Score(out, {BatchRecord{true, "", *r}}, ExpectedShards(args.workload),
          &tally);
  }
  std::fprintf(stderr,
               "%zu rounds: drops %llu, retargets %llu, grafts %llu, "
               "degraded %zu, short-shard rounds %zu\n",
               tally.attempted,
               static_cast<unsigned long long>(tally.injected_drops),
               static_cast<unsigned long long>(tally.retargets),
               static_cast<unsigned long long>(tally.grafts), tally.degraded,
               tally.short_shard_rounds);
  const auto wrote = WriteExpectations(args.write_expected, out);
  if (!wrote.ok()) {
    std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace roundbench

int main(int argc, char** argv) {
  using namespace roundbench;  // NOLINT(build/namespaces)
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: roundbench --workload NAME (--seed N --seconds S "
                 "--trace 0|1 --expected FILE | --setup-only 1 --expected "
                 "FILE | --write-expected FILE) --workdir DIR\n");
    return 2;
  }
  if (!args.write_expected.empty()) return WriteExpected(args);
  const auto expected = LoadExpectations(args.expected);
  if (!expected.ok()) {
    std::fprintf(stderr, "%s\n", expected.status().ToString().c_str());
    return 2;
  }
  if (args.setup_only) return SetupOnly(args, *expected);
  return args.trace ? TracedRun(args, *expected)
                    : TimedRun(args, *expected);
}
