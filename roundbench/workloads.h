// The benchmark's three workloads and the outcome referee.
//
// A workload owns its inputs (configuration, sensor field, the fixed pool
// of round seeds, up-front deployments) and runs rounds two ways:
//   - OneCall: the program's own one-call path (agg::RunIpda or
//     agg::RunShardedIpda), which the timed run measures;
//   - Stepped: the same round rebuilt from the public calls underneath
//     it, one span per call, which the traced run measures. The traced
//     run's equivalence self-test holds the two to the same outcome and
//     counters.
// RunBatch drives a list of rounds the way a user of that workload does:
// one round after another for the single-round workloads, and through
// exp::RunResilientSweep (journal, spill-store fold) for the sweep.

#ifndef ROUNDBENCH_WORKLOADS_H_
#define ROUNDBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "span_log.h"
#include "util/result.h"
#include "util/status.h"

namespace roundbench {

namespace util = ipda::util;

// What the referee checks per round: the golden-trace fields plus the red
// and blue tree totals. Kernel-work tallies (events, pool and CTR block
// counts) are left out on purpose: optimizations are expected to move
// them without changing what the round computes.
struct Outcome {
  double result = 0.0;
  double truth = 0.0;
  double accuracy = 0.0;
  double red = 0.0;
  double blue = 0.0;
  bool accepted = false;
  bool degraded = false;
  uint64_t participants = 0;
  uint64_t bytes_sent = 0;
};

// Comma-separated fields in the column order of the expectation files.
std::string FormatOutcome(const Outcome& outcome);
bool ParseOutcome(std::string_view text, Outcome* outcome);
bool OutcomesMatch(const Outcome& got, const Outcome& want);

// Expected outcome per round seed, as committed in expected/<name>.csv.
using Expectations = std::map<uint64_t, Outcome>;
util::Result<Expectations> LoadExpectations(const std::string& path);
util::Status WriteExpectations(const std::string& path,
                               const Expectations& expectations);

// Facts about one round that the layer-coverage assertions read.
struct Coverage {
  uint64_t injected_drops = 0;
  uint64_t retargets = 0;
  uint64_t grafts = 0;
  size_t live_shards = 0;  // Shards simulated (1 for single-sink rounds).
};

struct RoundResult {
  uint64_t seed = 0;
  Outcome outcome;
  Coverage coverage;
};

// A stepped round: its result, a digest of every counter it produced
// (compared against the one-call path), and the per-layer counts.
struct SteppedResult {
  RoundResult round;
  std::string digest;
  std::map<std::string, double> counts;
};

// Exp-layer figures of one RunBatch call (zero for workloads that do
// not drive rounds through a sweep).
struct BatchStats {
  double fold_ms = 0.0;   // Spill-store drain plus PAO/GK folds.
  uint64_t journal_bytes = 0;
  uint64_t spill_runs = 0;
};

struct BatchRecord {
  bool ok = false;
  std::string error;
  RoundResult round;
};

using RoundFn = std::function<util::Result<RoundResult>(uint64_t seed)>;

class Workload {
 public:
  // `workdir` receives journals and spill runs; it must exist.
  static util::Result<std::unique_ptr<Workload>> Create(
      std::string_view name, const std::string& workdir);

  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  // Fixed round seeds; the expectation file holds one row per seed.
  virtual const std::vector<uint64_t>& pool() const = 0;
  // Rounds RunBatch takes at a time in the timed phase.
  virtual size_t batch_rounds() const { return 1; }
  // Reference-kernel units timed before each round.
  virtual int ref_units() const = 0;
  // Sensitivity of this workload's round time to host speed: when the
  // reference unit runs x times slower, rounds run x^ref_exponent() times
  // slower. Fitted across whole runs (NOTES.md, "Why an exponent").
  virtual double ref_exponent() const = 0;

  // Builds everything a round needs that the workload prepares once
  // (deployments that are up front for this workload).
  virtual util::Status Setup() = 0;

  // One round through the program's one-call path. Thread-safe.
  virtual util::Result<RoundResult> OneCall(uint64_t seed) const = 0;
  // The counters of OneCall(seed), in Stepped's digest format.
  virtual util::Result<std::string> OneCallDigest(uint64_t seed) const = 0;
  // The same round stepped through public calls, spans into `log`.
  virtual util::Result<SteppedResult> Stepped(uint64_t seed,
                                              SpanLog& log) const = 0;

  // Runs `seeds` through `round` the way this workload's users do, with
  // `jobs` worker threads where the path has them.
  virtual util::Status RunBatch(const std::vector<uint64_t>& seeds,
                                const RoundFn& round, size_t jobs,
                                std::vector<BatchRecord>* records,
                                BatchStats* stats, SpanLog* log);
};

// Replays `bytes` of XTEA CTR keystream through the public CipherBackend
// path in `chunk`-byte messages.
void ReplayKeystream(uint64_t bytes, uint64_t chunk);

}  // namespace roundbench

#endif  // ROUNDBENCH_WORKLOADS_H_
