// Crash-tolerant sweep executor: runs a flat grid of (point, run)
// attempts across the engine's thread pool with journaling, per-run
// watchdogs, retry-with-forked-seed failure isolation, and graceful
// drain. This is the layer that turns "a sweep is a for-loop" into "a
// sweep is a resumable, kill-safe job".
//
// Execution model per flat run index:
//   - If a resume journal holds a terminal record for the index, the
//     recorded payload is replayed verbatim (no simulation), preserving
//     byte-identical output.
//   - Otherwise the body runs with a fresh CancelToken, an optional
//     event budget (deterministic) and wall-clock watchdog lease
//     (nondeterministic safety net). A failed attempt is journaled and
//     retried with a ForkAttemptSeed-derived seed up to max_retries;
//     exhausted retries journal a permanent ok=false record and the
//     sweep continues — one bad point never aborts the grid.
//   - A drain request (SIGINT/SIGTERM or programmatic) stops new runs
//     from starting; indices never started are left non-terminal in the
//     journal so a --resume re-executes exactly those.

#ifndef IPDA_EXP_RESILIENT_H_
#define IPDA_EXP_RESILIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/engine.h"
#include "exp/journal.h"
#include "sim/cancel.h"
#include "util/result.h"
#include "util/status.h"

namespace ipda::exp {

struct RunStatus;

struct ResilientOptions {
  uint64_t sweep_seed = 0;
  // Per-attempt deterministic event cap (0 = unlimited). The body is
  // expected to forward this to RunConfig::control.
  uint64_t event_budget = 0;
  // Per-attempt wall-clock deadline in seconds (0 = no watchdog).
  double run_deadline_s = 0.0;
  uint32_t max_retries = 0;  // Extra attempts after the first.
  // Journal to write ("" = no journaling; resume_path is used when set).
  std::string journal_path;
  // Journal to resume from ("" = fresh sweep). A missing file is a fresh
  // start (first launch of a to-be-resumed sweep); a header mismatch is
  // a hard error.
  std::string resume_path;
  // Canonical sweep configuration string; hashed into the journal header
  // and checked against a resume journal.
  std::string config_digest;
  std::string experiment;  // Tool name for the journal header.
  // Poll util::DrainRequested() between runs (the caller must have
  // installed the handler). Off for library tests that drive drain
  // programmatically via util::RequestDrain().
  bool drain_on_signal = true;
  // Seed of attempt 0 for (point, run). Defaults to DeriveRunSeed; tools
  // with a pre-existing seed scheme override it to keep their output
  // bytes unchanged.
  std::function<uint64_t(size_t point, size_t run)> base_seed_fn;
  // Streaming consumer of terminal records (executed or replayed; drain-
  // skipped indices are not terminal and never reach it). Called from
  // pool threads concurrently — must be thread-safe (e.g. feed an
  // exp::PartialAggStore, which is). The RunStatus still carries its
  // payload when the sink runs, regardless of keep_payloads.
  std::function<void(size_t flat_index, const RunStatus&)> record_sink;
  // When false, each RunStatus::payload is released right after the
  // journal write and the sink call, so ResilientReport stays O(1) per
  // run — the out-of-core mode for million-run sweeps whose folds live
  // entirely in the sink.
  bool keep_payloads = true;
};

// What one attempt sees. `cancel` and `event_budget` must be wired into
// the run's RunConfig::control for the watchdog and budget to bite.
struct AttemptContext {
  size_t point = 0;
  size_t run = 0;
  uint32_t attempt = 0;
  uint64_t seed = 0;
  const sim::CancelToken* cancel = nullptr;
  uint64_t event_budget = 0;
};

// One attempt of one run; returns the encoded result payload, or an
// error to trigger the retry/degradation policy. Must be thread-safe
// across distinct indices (shared-nothing, like all engine bodies).
using AttemptBody =
    std::function<util::Result<std::string>(const AttemptContext&)>;

// Terminal state of one flat run index after the sweep.
struct RunStatus {
  bool ok = false;
  bool replayed = false;  // Payload came from the resume journal.
  bool skipped = false;   // Never started (drain); not terminal.
  uint32_t attempts = 0;
  uint64_t seed = 0;      // Seed of the terminal attempt.
  std::string payload;    // Result payload when ok; failure reason else.
};

struct ResilientReport {
  std::vector<RunStatus> runs;  // Flat, point-major: index = p * runs + r.
  size_t replayed = 0;
  size_t executed = 0;
  size_t failed = 0;   // Permanent failures (retries exhausted).
  size_t skipped = 0;  // Drained before starting.
  bool drained = false;
  std::string journal_path;  // "" when journaling was off.
};

// Runs `points * runs_per_point` flat indices through `body` on
// `engine`'s pool. Point labels give attempt-0 seeds their identity via
// DeriveRunSeed (unless base_seed_fn overrides). Errors only on journal
// IO problems or a resume header mismatch — run failures are policy,
// not errors.
util::Result<ResilientReport> RunResilientSweep(
    Engine& engine, const std::vector<std::string>& point_labels,
    size_t runs_per_point, const ResilientOptions& options,
    const AttemptBody& body);

}  // namespace ipda::exp

#endif  // IPDA_EXP_RESILIENT_H_
