// Append-only run journal for crash-tolerant sweeps.
//
// One JSONL file per sweep. Line 1 is a header binding the journal to
// its experiment identity (name, config hash, sweep seed, total run
// count); every later line is either the terminal outcome of one flat
// run index — a success payload or a permanent failure, appended with
// one write(2) + fsync so it is durable the moment it exists — or an
// informational per-attempt failure record (watchdog trip, run error)
// left behind by the retry policy.
//
// Crash tolerance: records carry an FNV-1a checksum; the reader drops
// records that fail it and tolerates a torn final line, so a journal
// written by a SIGKILLed process loads cleanly up to the last durable
// record. Resume contract (enforced by exp/resilient.h): a sweep
// restarted with --resume verifies the header, replays terminal records
// by flat index, and re-executes only the rest — producing byte-identical
// output to an uninterrupted sweep, because what is replayed is the
// recorded payload, not a re-simulation.

#ifndef IPDA_EXP_JOURNAL_H_
#define IPDA_EXP_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/io.h"
#include "util/result.h"
#include "util/status.h"

namespace ipda::exp {

inline constexpr uint32_t kJournalVersion = 1;

struct JournalHeader {
  std::string experiment;    // Tool name, e.g. "fault_sweep".
  uint64_t config_hash = 0;  // Hash of the full sweep configuration.
  uint64_t sweep_seed = 0;
  uint64_t total_runs = 0;   // points * runs-per-point (flat indices).
  uint32_t version = kJournalVersion;
};

// Terminal outcome of one flat run index. Exactly one per index in a
// completed sweep; on resume these are replayed verbatim.
struct JournalRecord {
  uint64_t index = 0;
  uint64_t seed = 0;      // Seed of the attempt that produced the outcome.
  uint32_t attempts = 1;  // Attempts consumed to reach it.
  bool ok = false;
  std::string payload;    // Result payload when ok; failure reason else.
};

// One failed attempt (informational; a retry or permanent failure
// follows). Not replayed on resume — kept for post-mortems.
struct JournalFailure {
  uint64_t index = 0;
  uint32_t attempt = 0;
  uint64_t seed = 0;
  std::string reason;
};

struct Journal {
  JournalHeader header;
  std::map<uint64_t, JournalRecord> runs;  // Keyed by flat run index.
  std::vector<JournalFailure> failures;
  size_t corrupt_lines = 0;  // Checksum failures and torn tails skipped.
  // True when the file held no complete header line: zero bytes, or a
  // header torn mid-write(2) with no terminating newline. The writer
  // died before its first fsync'd line landed, so the journal is empty
  // by construction — callers treat it as a fresh start, not an error.
  // A COMPLETE first line that fails to parse is still a hard error
  // (wrong file / version drift), distinguishable because its newline
  // proves the write finished.
  bool torn_header = false;
};

// Thread-safe writer: workers append completed records concurrently;
// each call is one lock, one write, one fsync.
class JournalWriter {
 public:
  // Creates/truncates `path` and writes the header line.
  static util::Result<JournalWriter> Create(const std::string& path,
                                            const JournalHeader& header);
  // Reopens `path` to append after a resume. The caller has already
  // verified the on-disk header via JournalReader::Load.
  static util::Result<JournalWriter> Append(const std::string& path);

  JournalWriter();
  ~JournalWriter();
  JournalWriter(JournalWriter&&) noexcept;
  JournalWriter& operator=(JournalWriter&&) noexcept;

  bool is_open() const { return state_ != nullptr; }
  const std::string& path() const;

  util::Status WriteRun(const JournalRecord& record);
  util::Status WriteFailure(const JournalFailure& failure);

 private:
  struct State;  // AppendFile + mutex (mutex pins the address).
  std::unique_ptr<State> state_;
};

class JournalReader {
 public:
  // Loads and verifies a journal; fails only on IO errors or a complete-
  // but-unparsable header (corrupt records are skipped and counted; a
  // torn or absent header yields an empty journal with torn_header set).
  static util::Result<Journal> Load(const std::string& path);
};

// Checksum over a record's canonical fields; writer and reader agree.
uint64_t JournalChecksum(const JournalRecord& record);

}  // namespace ipda::exp

#endif  // IPDA_EXP_JOURNAL_H_
