#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <tuple>

#include "exp/agg_store.h"
#include "exp/engine.h"
#include "exp/resilient.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/io.h"
#include "util/signal.h"

namespace ipda::bench {
namespace {

[[noreturn]] void ExitUsage(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

bool ValidFieldName(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.';
  });
}

// Store keys: "c<cell>\x1f<field>" and "p<pool>\x1f<field>". The unit
// separator never appears in field or pool names, and the empty field
// of a cell marks one successful run.
constexpr char kKeySeparator = '\x1f';

}  // namespace

// Streaming fold of a sweep's records through the PAO spill store
// (DESIGN.md §16). Records arrive from pool threads in any order, but
// the store's canonical (key, seq) order replays every field in
// flat-index order — so the folds are byte-identical at any --jobs or
// budget.
class SweepFold {
 public:
  SweepFold(const SweepSpec& spec, const CellGrid& grid, uint64_t budget)
      : spec_(spec), grid_(grid), store_(exp::AggStoreOptions{budget, ""}) {}

  // Thread-safe. Failed records only feed the diagnostic; a payload that
  // does not decode counts as a failed run.
  void Consume(size_t flat, const exp::RunStatus& slot) {
    if (!slot.ok) {
      if (!slot.skipped) NoteFailure(flat, slot.payload, false);
      return;
    }
    const auto record = Record::Decode(slot.payload);
    if (!record.ok()) {
      NoteFailure(flat, "undecodable payload: " + record.status().ToString(),
                  true);
      return;
    }
    const size_t cell = grid_.Locate(flat).first;
    const std::string scope = "c" + std::to_string(cell) + kKeySeparator;
    const std::string& pool = spec_.cells[cell].pool;
    Add(scope, flat, 1.0);
    for (const auto& [name, value] : record->fields()) {
      Add(scope + name, flat, value);
      if (!pool.empty()) Add("p" + pool + kKeySeparator + name, flat, value);
    }
  }

  // Call once, after the producing side is done.
  util::Result<SweepResult> Reduce(size_t failed_runs) {
    SweepResult result;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      IPDA_RETURN_IF_ERROR(error_);
      result.failed_runs_ = failed_runs + undecodable_;
    }
    result.cells_.resize(spec_.cells.size());
    std::string current;
    FieldFold* target = nullptr;
    IPDA_RETURN_IF_ERROR(store_.ForEachSorted(
        [&](std::string_view key, uint64_t /*seq*/, double value) {
          if (target == nullptr || key != current) {
            current.assign(key);
            const size_t sep = key.find(kKeySeparator);
            const std::string scope(key.substr(1, sep - 1));
            SweepResult::Fields& fields =
                key[0] == 'c' ? result.cells_[std::stoul(scope)]
                              : result.pools_[scope];
            target = &fields[std::string(key.substr(sep + 1))];
          }
          target->summary.Add(value);
          target->sum += value;
        }));
    return result;
  }

  // "cell '<label>' run <r>: <reason>" of the lowest failed flat index.
  std::string FirstFailure() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (first_failed_ == SIZE_MAX) return "";
    const auto [cell, run] = grid_.Locate(first_failed_);
    return "cell '" + spec_.cells[cell].label + "' run " +
           std::to_string(run) + ": " + first_failure_;
  }

 private:
  void Add(const std::string& key, uint64_t seq, double value) {
    const util::Status status = store_.Add(key, seq, value);
    if (status.ok()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_.ok()) error_ = status;
  }

  void NoteFailure(size_t flat, const std::string& reason, bool undecodable) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (undecodable) ++undecodable_;
    if (flat < first_failed_) {
      first_failed_ = flat;
      first_failure_ = reason;
    }
  }

  const SweepSpec& spec_;
  const CellGrid& grid_;
  exp::PartialAggStore store_;
  std::mutex mutex_;
  util::Status error_;
  size_t undecodable_ = 0;
  size_t first_failed_ = SIZE_MAX;
  std::string first_failure_;
};

uint64_t EnvCount(const char* name, uint64_t fallback, uint64_t min) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const auto count = util::ParseCount(name, env);
  if (!count.ok()) ExitUsage(count.status().ToString());
  if (*count < min) {
    ExitUsage(std::string(name) + " must be at least " +
              std::to_string(min) + ", got '" + env + "'");
  }
  return *count;
}

size_t RunsPerPoint(size_t default_runs) {
  return EnvCount("IPDA_BENCH_RUNS", default_runs, 1);
}

BenchOptions ParseBenchOptions(int argc, const char* const* argv,
                               BenchKind kind) {
  const bool sweep = kind != BenchKind::kAnalytic;
  // 0 = all hardware threads.
  const uint64_t default_jobs = EnvCount("IPDA_BENCH_JOBS", 0, 0);
  util::FlagSet flags;
  flags.DefineInt("jobs", static_cast<int64_t>(default_jobs),
                  "worker threads for the experiment engine "
                  "(0 = all hardware threads)");
  if (sweep) {
    flags.DefineString("journal", "",
                       "append-only JSONL run journal; each completed run "
                       "is fsynced so a killed sweep is resumable");
    flags.DefineString("resume", "",
                       "journal from an interrupted sweep; completed runs "
                       "are replayed byte-identically, the rest executed");
    flags.DefineDouble("run-deadline", 0.0,
                       "wall-clock seconds per run attempt before the "
                       "watchdog cancels it (0 = no watchdog)");
    flags.DefineInt("event-budget", 0,
                    "max simulator events per run attempt (0 = unlimited; "
                    "deterministic, unlike --run-deadline)");
    flags.DefineInt("max-retries", 0,
                    "failed-run retries with a forked seed before the "
                    "point degrades");
    flags.DefineString("agg-memory-budget", "unlimited",
                       "byte budget for the streaming result fold (e.g. "
                       "64k, 256M; 0/unlimited = never spill); output is "
                       "byte-identical at every budget");
  }
  flags.DefineBool("help", false, "show usage");
  const util::Status status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    ExitUsage(status.ToString() + "\n" + flags.Usage(argv[0]));
  }
  if (flags.GetBool("help")) {
    std::fputs(flags.Usage(argv[0]).c_str(), stdout);
    std::exit(0);
  }
  const auto count = [&flags](const char* name, uint64_t max) {
    const auto value = flags.GetCount(name, max);
    if (!value.ok()) ExitUsage(value.status().ToString());
    return *value;
  };
  BenchOptions options;
  options.jobs = exp::ResolveJobs(
      static_cast<int64_t>(count("jobs", UINT32_MAX)));
  if (!sweep) return options;

  util::InstallDrainHandler();
  options.journal = flags.GetString("journal");
  options.resume = flags.GetString("resume");
  const auto run_deadline = flags.GetFinite("run-deadline");
  if (!run_deadline.ok()) ExitUsage(run_deadline.status().ToString());
  options.run_deadline_s = *run_deadline;
  options.event_budget = count("event-budget", INT64_MAX);
  options.max_retries =
      static_cast<uint32_t>(count("max-retries", UINT32_MAX));
  const auto budget =
      util::ParseByteSize(flags.GetString("agg-memory-budget"));
  if (!budget.ok()) {
    ExitUsage("bad --agg-memory-budget: " + budget.status().ToString());
  }
  options.agg_memory_budget = budget.value();
  // Scheduling and IO flags never enter the config digest: a sweep and
  // its resume at another --jobs or budget must agree on the journal
  // identity byte-for-byte.
  options.canonical = flags.Canonical(
      {"jobs", "journal", "resume", "run-deadline", "help",
       "agg-memory-budget"});
  return options;
}

Record& Record::Set(std::string_view name, double value) {
  IPDA_CHECK(ValidFieldName(name));
  for (auto& field : fields_) {
    if (field.first == name) {
      field.second = value;
      return *this;
    }
  }
  fields_.emplace_back(std::string(name), value);
  return *this;
}

const double* Record::Find(std::string_view name) const {
  for (const auto& field : fields_) {
    if (field.first == name) return &field.second;
  }
  return nullptr;
}

std::string Record::Encode() const {
  std::string payload;
  for (const auto& [name, value] : fields_) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!payload.empty()) payload += ';';
    payload += name;
    payload += '=';
    payload += buf;
  }
  return payload;
}

util::Result<Record> Record::Decode(std::string_view payload) {
  Record record;
  if (payload.empty()) return record;
  size_t begin = 0;
  for (;;) {
    const size_t end = payload.find(';', begin);
    const std::string_view item = payload.substr(
        begin, end == std::string_view::npos ? end : end - begin);
    const size_t eq = item.find('=');
    const std::string_view name = item.substr(0, eq);
    if (eq == std::string_view::npos || !ValidFieldName(name) ||
        record.Find(name) != nullptr) {
      return util::InvalidArgumentError("bad record field '" +
                                        std::string(item) + "'");
    }
    const std::string text(item.substr(eq + 1));
    char* parsed_end = nullptr;
    const double value = std::strtod(text.c_str(), &parsed_end);
    if (text.empty() || *parsed_end != '\0') {
      return util::InvalidArgumentError("bad record value '" +
                                        std::string(item) + "'");
    }
    record.fields_.emplace_back(std::string(name), value);
    if (end == std::string_view::npos) return record;
    begin = end + 1;
  }
}

CellGrid::CellGrid(const SweepSpec& spec) : spec_(spec) {
  offsets_.reserve(spec.cells.size() + 1);
  offsets_.push_back(0);
  for (const Cell& cell : spec.cells) {
    offsets_.push_back(offsets_.back() + cell.runs);
  }
}

std::pair<size_t, size_t> CellGrid::Locate(size_t flat) const {
  // The last cell starting at or before `flat` (empty cells share their
  // successor's offset and are skipped).
  const size_t cell = static_cast<size_t>(
      std::upper_bound(offsets_.begin(), offsets_.end(), flat) -
      offsets_.begin() - 1);
  return {cell, flat - offsets_[cell]};
}

uint64_t CellGrid::BaseSeed(size_t flat) const {
  const auto [cell, run] = Locate(flat);
  const Cell& spec_cell = spec_.cells[cell];
  return spec_cell.seed
             ? spec_cell.seed(run)
             : exp::DeriveRunSeed(spec_.sweep_seed, spec_cell.label, run);
}

const FieldFold& SweepResult::Get(size_t cell,
                                  std::string_view field) const {
  static const FieldFold kEmpty;
  if (cell >= cells_.size()) return kEmpty;
  const auto it = cells_[cell].find(field);
  return it == cells_[cell].end() ? kEmpty : it->second;
}

const FieldFold& SweepResult::Pool(std::string_view pool,
                                   std::string_view field) const {
  static const FieldFold kEmpty;
  const auto fields = pools_.find(pool);
  if (fields == pools_.end()) return kEmpty;
  const auto it = fields->second.find(field);
  return it == fields->second.end() ? kEmpty : it->second;
}

size_t SweepResult::ok_runs(size_t cell) const {
  return Get(cell, "").count();
}

namespace {

// RunSweep's body: returns the process exit code (0 with `out` filled),
// having printed any diagnostic. Returning instead of exiting here lets
// the engine and the spill store (which owns a temporary directory) be
// destroyed before the process ends.
int Sweep(const BenchOptions& options, const char* argv0,
          const SweepSpec& spec, const RunBody& body, SweepResult& out) {
  const char* tool = spec.experiment.c_str();
  const CellGrid grid(spec);
  std::string shape;
  for (const Cell& cell : spec.cells) {
    shape += cell.label + "x" + std::to_string(cell.runs) + ";";
  }

  exp::ResilientOptions resilience;
  resilience.sweep_seed = spec.sweep_seed;
  resilience.event_budget = options.event_budget;
  resilience.run_deadline_s = options.run_deadline_s;
  resilience.max_retries = options.max_retries;
  resilience.journal_path = options.journal;
  resilience.resume_path = options.resume;
  resilience.experiment = spec.experiment;
  resilience.config_digest = spec.experiment + "|" + spec.digest + "|" +
                             shape + "|" + options.canonical;
  resilience.base_seed_fn = [&grid](size_t point, size_t /*run*/) {
    return grid.BaseSeed(point);
  };
  const exp::AttemptBody attempt =
      [&grid, &body](
          const exp::AttemptContext& ctx) -> util::Result<std::string> {
    RunContext run;
    std::tie(run.cell, run.run) = grid.Locate(ctx.point);
    run.seed = ctx.seed;
    run.control.cancel = ctx.cancel;
    run.control.event_budget = ctx.event_budget;
    IPDA_ASSIGN_OR_RETURN(const Record record, body(run));
    return record.Encode();
  };

  SweepFold fold(spec, grid, options.agg_memory_budget);
  // Records stream into the fold the moment they land and their payloads
  // are dropped, so the sweep reports in O(budget) RSS.
  resilience.record_sink = [&fold](size_t flat, const exp::RunStatus& slot) {
    fold.Consume(flat, slot);
  };
  resilience.keep_payloads = false;
  // Every sweep is flat for the executor: one run per "point", with
  // base_seed_fn mapping the flat index back to its cell's seed, so cells
  // of uneven run counts need no padding.
  exp::Engine engine(options.jobs);
  const auto report = exp::RunResilientSweep(
      engine, std::vector<std::string>(grid.total()), 1, resilience, attempt);
  if (!report.ok()) {
    std::fprintf(stderr, "%s: %s\n", tool, report.status().ToString().c_str());
    return 1;
  }
  if (report->drained) {
    // No partial document on stdout: the resumed invocation prints it
    // whole, byte-identical to an uninterrupted sweep.
    std::fprintf(stderr,
                 "%s: drained with %zu/%zu runs journaled; resume with: %s "
                 "--resume %s\n",
                 tool, report->replayed + report->executed,
                 report->runs.size(), argv0,
                 report->journal_path.empty() ? "<journal>"
                                              : report->journal_path.c_str());
    return util::kDrainExitCode;
  }
  auto result = fold.Reduce(report->failed);
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", tool, result.status().ToString().c_str());
    return 1;
  }
  if (!spec.tolerate_failures && result->failed_runs() > 0) {
    std::fprintf(stderr, "%s: %zu of %zu runs failed; first: %s\n", tool,
                 result->failed_runs(), grid.total(),
                 fold.FirstFailure().c_str());
    return 1;
  }
  out = *std::move(result);
  return 0;
}

}  // namespace

SweepResult RunSweep(const BenchOptions& options, const char* argv0,
                     const SweepSpec& spec, const RunBody& body) {
  SweepResult result;
  if (const int code = Sweep(options, argv0, spec, body, result); code != 0) {
    std::exit(code);
  }
  return result;
}

std::vector<size_t> NetworkSizes() { return {200, 300, 400, 500, 600}; }

agg::RunConfig PaperRunConfig(size_t node_count, uint64_t seed) {
  agg::RunConfig config;
  config.deployment.area = net::Area{400.0, 400.0};
  config.deployment.node_count = node_count;
  config.range = 50.0;
  config.phy.data_rate_bps = 1e6;
  config.seed = seed;
  return config;
}

agg::IpdaConfig PaperIpdaConfig(uint32_t slice_count) {
  agg::IpdaConfig config;
  config.slice_count = slice_count;
  config.slice_range = 1.0;  // COUNT contributions are 1.
  return config;
}

void PrintHeader(const char* experiment_id, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", experiment_id, description);
  std::printf("runs/point=%zu (IPDA_BENCH_RUNS to change; paper used 50)\n",
              RunsPerPoint());
  std::printf("==============================================================\n");
}

void PrintFooter() { std::printf("\n"); }

}  // namespace ipda::bench
