// Shared plumbing for the paper-reproduction bench binaries.
//
// Every bench prints the rows/series of one table or figure from the
// paper's §IV. Monte-Carlo fidelity is controlled by the IPDA_BENCH_RUNS
// environment variable (default 5 runs per point; the paper used 50).
//
// Every Monte-Carlo bench is one declarative sweep: it lists its cells
// (label, run count, optional legacy seed formula) and a per-run body
// that returns a Record of named numbers. RunSweep owns the rest, the
// same way for every bench: the journal (--journal/--resume), graceful
// drain, retries, and the streaming fold through the spill store
// (--agg-memory-budget, DESIGN.md §16). The folded numbers are
// byte-identical at any --jobs, budget, or kill/resume point.

#ifndef IPDA_BENCH_BENCH_COMMON_H_
#define IPDA_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "agg/runner.h"
#include "stats/summary.h"
#include "util/result.h"

namespace ipda::bench {

// A count from environment variable `name`: `fallback` when unset or
// empty; a value that is not an integer >= `min` exits 2.
uint64_t EnvCount(const char* name, uint64_t fallback, uint64_t min = 1);

// Runs per sweep point: IPDA_BENCH_RUNS (a positive integer) when set,
// else `default_runs`.
size_t RunsPerPoint(size_t default_runs = 5);

// Which of the shared flags a bench accepts.
enum class BenchKind {
  kAnalytic,  // --jobs and --help only: no Monte-Carlo sweep.
  kSweep,     // Plus every sweep flag (journal, budget...).
};

struct BenchOptions {
  size_t jobs = 1;
  std::string journal;       // --journal: JSONL run journal to write.
  std::string resume;        // --resume: journal to replay and continue.
  double run_deadline_s = 0.0;  // --run-deadline: watchdog seconds.
  uint64_t event_budget = 0;    // --event-budget: events per attempt.
  uint32_t max_retries = 0;     // --max-retries: forked-seed retries.
  // --agg-memory-budget: byte budget for the streaming result fold
  // (exp::PartialAggStore); 0 = unlimited. Purely a memory/scheduling
  // knob — the folded tables are byte-identical at every budget — so it
  // stays out of the canonical digest, like --jobs.
  uint64_t agg_memory_budget = 0;
  // Canonical flag string minus the scheduling/IO flags that do not
  // change results (jobs, journal, resume, run-deadline, budget); hashed
  // into the journal's config digest.
  std::string canonical;
};

// Parses the flags of a `kind` bench: --jobs N (0 = all hardware
// threads; IPDA_BENCH_JOBS is the default when the flag is absent) and,
// for sweeps, the resilience flags. Unknown flags, negative or malformed
// counts (flags and IPDA_BENCH_* variables alike) and a --run-deadline
// that is negative, NaN or infinite print a diagnostic and exit(2);
// --help prints usage and exit(0). Sweep kinds also install the
// SIGINT/SIGTERM drain handler.
BenchOptions ParseBenchOptions(int argc, const char* const* argv,
                               BenchKind kind);

// One run's result: named numbers. A field the run did not set is
// absent, not zero: it adds nothing to that field's fold.
class Record {
 public:
  // Sets or overwrites a field. Names are non-empty and use only
  // [A-Za-z0-9_.]; anything else is a programming error and aborts.
  Record& Set(std::string_view name, double value);
  // The field's value, or null when absent.
  const double* Find(std::string_view name) const;
  const std::vector<std::pair<std::string, double>>& fields() const {
    return fields_;
  }

  // Journal payload "name=value;..." with every value printed "%.17g",
  // so Decode(Encode()) is bit-identical to the record.
  std::string Encode() const;
  static util::Result<Record> Decode(std::string_view payload);

 private:
  std::vector<std::pair<std::string, double>> fields_;
};

// One sweep cell: a labeled grid point run `runs` times.
struct Cell {
  std::string label;
  size_t runs = 0;
  // Attempt-0 seed of run r. Empty = exp::DeriveRunSeed(sweep_seed,
  // label, r). Benches older than the driver keep their own formula here
  // so their output bytes do not move.
  std::function<uint64_t(size_t run)> seed;
  // Non-empty: every field of this cell is also folded into
  // SweepResult::Pool(pool, field), over all cells sharing the pool, in
  // flat-index order.
  std::string pool;
};

struct SweepSpec {
  std::string experiment;  // Journal header name and stderr prefix.
  uint64_t sweep_seed = 0;
  // Result-affecting settings that are neither flags nor cells (e.g.
  // "nodes=300"); they enter the journal's config digest.
  std::string digest;
  std::vector<Cell> cells;
  // false: any permanently failed run makes RunSweep exit 1. true: the
  // sweep degrades instead — failures are counted in failed_runs() and
  // the affected cells report fewer ok_runs().
  bool tolerate_failures = false;
};

// Flat layout of a spec's cells: cell c owns the flat run indices
// [offset(c), offset(c) + runs) in cell order, so cells that all run R
// times keep the rectangular index c * R + r.
class CellGrid {
 public:
  // `spec` must outlive the grid.
  explicit CellGrid(const SweepSpec& spec);

  size_t total() const { return offsets_.back(); }
  // (cell, run) of a flat index below total().
  std::pair<size_t, size_t> Locate(size_t flat) const;
  // Attempt-0 seed of a flat index (the cell's formula or DeriveRunSeed).
  uint64_t BaseSeed(size_t flat) const;

 private:
  const SweepSpec& spec_;
  std::vector<size_t> offsets_;  // offsets_[c] = first index of cell c.
};

// What one run of the body sees.
struct RunContext {
  size_t cell = 0;
  size_t run = 0;
  uint64_t seed = 0;  // Cell seed, forked on retries.
  // Watchdog token and event budget: copy into RunConfig::control.
  agg::RunControl control;
};

// One attempt of one run. Must be thread-safe across runs
// (shared-nothing, like every engine body); an error fails the attempt.
using RunBody = std::function<util::Result<Record>(const RunContext&)>;

// One field folded over the runs that set it.
struct FieldFold {
  stats::Summary summary;  // Fed in flat-index (run) order.
  double sum = 0.0;        // Run-order sum; exact for integer counts.
  size_t count() const { return summary.count(); }
  // The sum of an integer-valued field (flags, counters) as a count.
  size_t total() const { return static_cast<size_t>(sum); }
};

class SweepResult {
 public:
  // The fold of `field` in `cell`; an empty fold when no run set it.
  const FieldFold& Get(size_t cell, std::string_view field) const;
  // The fold of `field` over every cell whose Cell::pool is `pool`.
  const FieldFold& Pool(std::string_view pool, std::string_view field) const;
  // Runs of `cell` that succeeded and decoded.
  size_t ok_runs(size_t cell) const;
  // Permanent failures, undecodable journal payloads included.
  size_t failed_runs() const { return failed_runs_; }

 private:
  friend class SweepFold;
  using Fields = std::map<std::string, FieldFold, std::less<>>;

  std::vector<Fields> cells_;
  std::map<std::string, Fields, std::less<>> pools_;
  size_t failed_runs_ = 0;
};

// Runs the sweep on --jobs threads and returns its folds; each record
// streams into the fold as it lands. Never returns on a drain (prints
// the resume command, exits 75) or on an error (journal IO, a resume
// mismatch, or a failed run when the spec does not tolerate failures:
// exits 1). Call before printing anything, so a drained invocation
// leaves stdout empty and its resume prints the whole document.
SweepResult RunSweep(const BenchOptions& options, const char* argv0,
                     const SweepSpec& spec, const RunBody& body);

// The paper's x-axis: N in [200, 600].
std::vector<size_t> NetworkSizes();

// 400x400 m area, 50 m range, 1 Mbps — the §IV-B setup.
agg::RunConfig PaperRunConfig(size_t node_count, uint64_t seed);

// COUNT aggregation with slice noise matched to the data domain.
agg::IpdaConfig PaperIpdaConfig(uint32_t slice_count);

// Banner naming the experiment and its place in the paper.
void PrintHeader(const char* experiment_id, const char* description);

// Footer separating experiments in concatenated bench output.
void PrintFooter();

}  // namespace ipda::bench

#endif  // IPDA_BENCH_BENCH_COMMON_H_
