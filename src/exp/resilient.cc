#include "exp/resilient.h"

#include <cstdio>
#include <mutex>
#include <utility>

#include "exp/watchdog.h"
#include "util/io.h"
#include "util/random.h"
#include "util/signal.h"

namespace ipda::exp {
namespace {

bool ShouldDrain(const ResilientOptions& options) {
  return options.drain_on_signal ? util::DrainRequested() : false;
}

// Captures the first journal write error seen by any worker; the sweep
// keeps running (losing durability mid-flight should not waste the
// compute already done) and the error surfaces after the grid finishes.
class FirstError {
 public:
  void Record(util::Status status) {
    if (status.ok()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok()) status_ = std::move(status);
  }
  util::Status Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return status_;
  }

 private:
  std::mutex mutex_;
  util::Status status_;
};

std::string HeaderMismatch(const JournalHeader& want,
                           const JournalHeader& got) {
  if (want.experiment != got.experiment) {
    return "experiment '" + got.experiment + "' vs '" + want.experiment + "'";
  }
  if (want.config_hash != got.config_hash) {
    return "config hash mismatch (the sweep flags differ from the "
           "journaled sweep)";
  }
  if (want.sweep_seed != got.sweep_seed) {
    return "sweep seed " + std::to_string(got.sweep_seed) + " vs " +
           std::to_string(want.sweep_seed);
  }
  if (want.total_runs != got.total_runs) {
    return "total runs " + std::to_string(got.total_runs) + " vs " +
           std::to_string(want.total_runs);
  }
  return "";
}

}  // namespace

util::Result<ResilientReport> RunResilientSweep(
    Engine& engine, const std::vector<std::string>& point_labels,
    size_t runs_per_point, const ResilientOptions& options,
    const AttemptBody& body) {
  const size_t total = point_labels.size() * runs_per_point;
  ResilientReport report;
  report.runs.resize(total);

  JournalHeader header;
  header.experiment = options.experiment;
  header.config_hash = util::HashLabel(options.config_digest);
  header.sweep_seed = options.sweep_seed;
  header.total_runs = total;

  // Load the resume journal, if any. A missing file is a fresh start
  // (first launch of a sweep that names its journal up front); anything
  // on disk must match this sweep's identity exactly.
  Journal resumed;
  bool have_resume = false;
  if (!options.resume_path.empty()) {
    if (util::FileExists(options.resume_path)) {
      IPDA_ASSIGN_OR_RETURN(resumed, JournalReader::Load(options.resume_path));
      if (resumed.torn_header) {
        // The previous attempt died before its header line was durable:
        // the journal provably holds nothing, so this is a fresh start,
        // not a mismatch. (The writer below truncates the torn bytes.)
        std::fprintf(stderr,
                     "note: resume journal '%s' has no complete header "
                     "(crash before the first record); starting fresh\n",
                     options.resume_path.c_str());
        resumed = Journal();
      } else {
        const std::string mismatch = HeaderMismatch(header, resumed.header);
        if (!mismatch.empty()) {
          return util::FailedPreconditionError(
              "cannot resume from '" + options.resume_path + "': " + mismatch);
        }
        have_resume = true;
      }
    } else {
      std::fprintf(stderr,
                   "note: resume journal '%s' not found; starting fresh\n",
                   options.resume_path.c_str());
    }
  }

  // Journaling target: an explicit --journal wins; otherwise keep
  // appending to the journal being resumed.
  const std::string journal_path =
      !options.journal_path.empty() ? options.journal_path
                                    : options.resume_path;
  JournalWriter writer;
  if (!journal_path.empty()) {
    if (have_resume && journal_path == options.resume_path) {
      IPDA_ASSIGN_OR_RETURN(writer, JournalWriter::Append(journal_path));
    } else {
      IPDA_ASSIGN_OR_RETURN(writer, JournalWriter::Create(journal_path,
                                                          header));
      // Journaling to a different file than the one being resumed:
      // re-emit the replayed records so the new journal is complete on
      // its own.
      if (have_resume) {
        for (const auto& [index, record] : resumed.runs) {
          if (index >= total) continue;
          IPDA_RETURN_IF_ERROR(writer.WriteRun(record));
        }
      }
    }
    report.journal_path = journal_path;
  }

  // Hands one terminal record to the sink (if any) and then drops the
  // payload in out-of-core mode. Every terminal path — replayed prefill,
  // success, exhausted retries — funnels through here exactly once.
  const auto finalize = [&options](size_t index, RunStatus& slot) {
    if (options.record_sink) options.record_sink(index, slot);
    if (!options.keep_payloads) {
      slot.payload.clear();
      slot.payload.shrink_to_fit();
    }
  };

  // Prefill replayed slots: their payloads come from the journal, not a
  // re-simulation, so resumed output is byte-identical by construction.
  for (const auto& [index, record] : resumed.runs) {
    if (index >= total) continue;
    RunStatus& slot = report.runs[index];
    slot.ok = record.ok;
    slot.replayed = true;
    slot.attempts = record.attempts;
    slot.seed = record.seed;
    slot.payload = record.payload;
    finalize(index, slot);
  }

  Watchdog watchdog;
  FirstError journal_error;

  engine.ParallelFor(total, [&](size_t i) {
    RunStatus& slot = report.runs[i];
    if (slot.replayed) return;
    if (ShouldDrain(options)) {
      // Never started: leave non-terminal so --resume re-executes it.
      slot.skipped = true;
      return;
    }
    const size_t point = i / runs_per_point;
    const size_t run = i % runs_per_point;
    const uint64_t base_seed =
        options.base_seed_fn
            ? options.base_seed_fn(point, run)
            : DeriveRunSeed(options.sweep_seed, point_labels[point], run);
    for (uint32_t attempt = 0; attempt <= options.max_retries; ++attempt) {
      const uint64_t seed = ForkAttemptSeed(base_seed, attempt);
      sim::CancelToken token;
      WatchdogLease lease;
      if (options.run_deadline_s > 0.0) {
        lease = WatchdogLease(watchdog, &token, options.run_deadline_s);
      }
      AttemptContext context;
      context.point = point;
      context.run = run;
      context.attempt = attempt;
      context.seed = seed;
      context.cancel = &token;
      context.event_budget = options.event_budget;
      util::Result<std::string> result = body(context);
      lease.Release();
      slot.attempts = attempt + 1;
      slot.seed = seed;
      if (result.ok()) {
        slot.ok = true;
        slot.payload = *std::move(result);
        if (writer.is_open()) {
          journal_error.Record(writer.WriteRun(
              {i, seed, slot.attempts, true, slot.payload}));
        }
        finalize(i, slot);
        return;
      }
      slot.payload = result.status().message();
      if (writer.is_open()) {
        journal_error.Record(
            writer.WriteFailure({i, attempt, seed, slot.payload}));
      }
      if (ShouldDrain(options)) {
        // Draining: don't burn retries; leave the index non-terminal so
        // a resume gets a full retry budget.
        slot.skipped = true;
        return;
      }
    }
    // Retries exhausted: terminal failure. The sweep continues; the
    // point degrades (stats::DegradedCi95) instead of aborting the grid.
    slot.ok = false;
    if (writer.is_open()) {
      journal_error.Record(writer.WriteRun(
          {i, slot.seed, slot.attempts, false, slot.payload}));
    }
    finalize(i, slot);
  });

  IPDA_RETURN_IF_ERROR(journal_error.Take());

  for (const RunStatus& slot : report.runs) {
    if (slot.replayed) {
      ++report.replayed;
      if (!slot.ok) ++report.failed;
    } else if (slot.skipped) {
      ++report.skipped;
    } else {
      ++report.executed;
      if (!slot.ok) ++report.failed;
    }
  }
  report.drained = ShouldDrain(options) || report.skipped > 0;
  return report;
}

}  // namespace ipda::exp
