// Run journal + resilient sweep executor: durability, corruption
// tolerance, kill-and-resume byte-identity, retry/degradation policy.

#include "exp/journal.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/engine.h"
#include "exp/resilient.h"
#include "util/io.h"
#include "util/signal.h"

namespace ipda::exp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "exp_journal_test_" + name + ".jsonl";
}

JournalHeader TestHeader() {
  JournalHeader header;
  header.experiment = "journal_test";
  header.config_hash = 0xDEADBEEF12345678ull;
  header.sweep_seed = 42;
  header.total_runs = 6;
  return header;
}

TEST(Journal, WriterReaderRoundTrip) {
  const std::string path = TempPath("roundtrip");
  {
    auto writer = JournalWriter::Create(path, TestHeader());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(
        writer->WriteRun({0, 111, 1, true, "payload \"zero\";1,2"}).ok());
    ASSERT_TRUE(writer->WriteFailure({1, 0, 222, "hung: deadline"}).ok());
    ASSERT_TRUE(writer->WriteRun({1, 333, 2, true, "payload one"}).ok());
    ASSERT_TRUE(writer->WriteRun({2, 444, 3, false, "gave up"}).ok());
  }
  auto journal = JournalReader::Load(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->header.experiment, "journal_test");
  EXPECT_EQ(journal->header.config_hash, TestHeader().config_hash);
  EXPECT_EQ(journal->header.sweep_seed, 42u);
  EXPECT_EQ(journal->header.total_runs, 6u);
  EXPECT_EQ(journal->corrupt_lines, 0u);
  ASSERT_EQ(journal->runs.size(), 3u);
  EXPECT_EQ(journal->runs.at(0).payload, "payload \"zero\";1,2");
  EXPECT_TRUE(journal->runs.at(0).ok);
  EXPECT_EQ(journal->runs.at(1).seed, 333u);
  EXPECT_EQ(journal->runs.at(1).attempts, 2u);
  EXPECT_FALSE(journal->runs.at(2).ok);
  EXPECT_EQ(journal->runs.at(2).payload, "gave up");
  ASSERT_EQ(journal->failures.size(), 1u);
  EXPECT_EQ(journal->failures[0].index, 1u);
  EXPECT_EQ(journal->failures[0].reason, "hung: deadline");
}

TEST(Journal, ChecksumCorruptionIsSkippedAndCounted) {
  const std::string path = TempPath("corrupt");
  {
    auto writer = JournalWriter::Create(path, TestHeader());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteRun({0, 1, 1, true, "keep"}).ok());
    ASSERT_TRUE(writer->WriteRun({1, 2, 1, true, "corrupt-me"}).ok());
    ASSERT_TRUE(writer->WriteRun({2, 3, 1, true, "keep too"}).ok());
  }
  // Flip one payload byte of record 1 on disk; its crc no longer
  // matches, so the reader must drop exactly that record.
  auto contents = util::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  const size_t pos = contents->find("corrupt-me");
  ASSERT_NE(pos, std::string::npos);
  (*contents)[pos] = 'X';
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(contents->data(), 1, contents->size(), f);
    std::fclose(f);
  }
  auto journal = JournalReader::Load(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->corrupt_lines, 1u);
  EXPECT_EQ(journal->runs.size(), 2u);
  EXPECT_TRUE(journal->runs.count(0));
  EXPECT_FALSE(journal->runs.count(1));
  EXPECT_TRUE(journal->runs.count(2));
}

TEST(Journal, TornTailIsTolerated) {
  const std::string path = TempPath("torn");
  {
    auto writer = JournalWriter::Create(path, TestHeader());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteRun({0, 1, 1, true, "whole"}).ok());
  }
  {
    // Simulate a SIGKILL mid-write: half a record, no newline.
    auto file = util::AppendFile::Open(path);
    ASSERT_TRUE(file.ok());
    // AppendLine always terminates, so write the torn bytes directly.
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"run\",\"index\":1,\"seed\":9", f);
    std::fclose(f);
  }
  auto journal = JournalReader::Load(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->runs.size(), 1u);
  EXPECT_EQ(journal->corrupt_lines, 1u);
}

TEST(Journal, TornHeaderIsEmptyJournalNotError) {
  // Zero bytes: the writer was killed between open and the header write.
  const std::string empty_path = TempPath("zero_byte");
  {
    std::FILE* f = std::fopen(empty_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  auto empty = JournalReader::Load(empty_path);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->torn_header);
  EXPECT_EQ(empty->runs.size(), 0u);
  EXPECT_EQ(empty->corrupt_lines, 0u);

  // Header torn mid-write (no newline ever landed): empty-and-torn, one
  // counted torn line.
  const std::string torn_path = TempPath("torn_header");
  {
    std::FILE* f = std::fopen(torn_path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"header\",\"version\":1,\"config_ha", f);
    std::fclose(f);
  }
  auto torn = JournalReader::Load(torn_path);
  ASSERT_TRUE(torn.ok());
  EXPECT_TRUE(torn->torn_header);
  EXPECT_EQ(torn->runs.size(), 0u);
  EXPECT_EQ(torn->corrupt_lines, 1u);
}

TEST(Journal, CompleteButMalformedHeaderStillRejected) {
  // A COMPLETE first line that is not a parsable header stays a hard
  // error — only a torn (newline-less) header degrades to empty.
  const std::string path = TempPath("malformed_header");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"header\",\"version\":1,\"garbage\":true}\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(JournalReader::Load(path).ok());
}

// Property test: a valid journal truncated at EVERY byte offset must
// load without error, never invent or double-count a record, replay only
// payload-exact prefixes of the original, and report exactly one torn
// line when (and only when) the cut landed mid-line.
TEST(Journal, TruncationAtEveryByteOffsetIsSafe) {
  const std::string path = TempPath("truncate_property");
  {
    auto writer = JournalWriter::Create(path, TestHeader());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteRun({0, 11, 1, true, "alpha \"quoted\""}).ok());
    ASSERT_TRUE(writer->WriteFailure({1, 0, 22, "flaky\nattempt"}).ok());
    ASSERT_TRUE(writer->WriteRun({1, 23, 2, true, "beta"}).ok());
    ASSERT_TRUE(writer->WriteRun({2, 33, 1, false, "gamma gave up"}).ok());
  }
  auto full_bytes = util::ReadFileToString(path);
  ASSERT_TRUE(full_bytes.ok());
  auto full = JournalReader::Load(path);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->runs.size(), 3u);

  const size_t header_end = full_bytes->find('\n');
  ASSERT_NE(header_end, std::string::npos);

  const std::string prefix_path = TempPath("truncate_prefix");
  for (size_t cut = 0; cut <= full_bytes->size(); ++cut) {
    {
      std::FILE* f = std::fopen(prefix_path.c_str(), "w");
      ASSERT_NE(f, nullptr);
      std::fwrite(full_bytes->data(), 1, cut, f);
      std::fclose(f);
    }
    auto loaded = JournalReader::Load(prefix_path);
    ASSERT_TRUE(loaded.ok()) << "cut at byte " << cut;
    const bool ends_mid_line = cut > 0 && (*full_bytes)[cut - 1] != '\n';
    EXPECT_EQ(loaded->corrupt_lines, ends_mid_line ? 1u : 0u)
        << "cut at byte " << cut;
    if (cut <= header_end) {
      // No complete header: provably empty, flagged torn, fresh start.
      EXPECT_TRUE(loaded->torn_header) << "cut at byte " << cut;
      EXPECT_EQ(loaded->runs.size(), 0u) << "cut at byte " << cut;
      continue;
    }
    EXPECT_FALSE(loaded->torn_header) << "cut at byte " << cut;
    EXPECT_EQ(loaded->header.config_hash, TestHeader().config_hash);
    // Every surviving record must be one of the originals, bit-exact —
    // never a paraphrase, never a duplicate (runs is keyed by index).
    EXPECT_LE(loaded->runs.size(), full->runs.size());
    for (const auto& [index, record] : loaded->runs) {
      const auto original = full->runs.find(index);
      ASSERT_NE(original, full->runs.end()) << "cut at byte " << cut;
      EXPECT_EQ(record.payload, original->second.payload);
      EXPECT_EQ(record.seed, original->second.seed);
      EXPECT_EQ(record.attempts, original->second.attempts);
      EXPECT_EQ(record.ok, original->second.ok);
    }
    // Records are recovered in order: a cut never drops record k but
    // keeps record k+1 (the journal is append-only).
    size_t newlines_seen = 0;
    for (size_t i = 0; i < cut; ++i) {
      if ((*full_bytes)[i] == '\n') ++newlines_seen;
    }
    // Lines: header, run0, failure, run1, run2 — complete lines in the
    // prefix determine exactly which runs must have survived.
    const size_t complete_lines = newlines_seen;
    size_t expect_runs = 0;
    if (complete_lines >= 2) ++expect_runs;  // run index 0.
    if (complete_lines >= 4) ++expect_runs;  // run index 1.
    if (complete_lines >= 5) ++expect_runs;  // run index 2.
    EXPECT_EQ(loaded->runs.size(), expect_runs) << "cut at byte " << cut;
    EXPECT_EQ(loaded->failures.size(), complete_lines >= 3 ? 1u : 0u);
  }
}

TEST(Journal, MissingHeaderRejected) {
  const std::string path = TempPath("headerless");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"run\",\"index\":0}\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(JournalReader::Load(path).ok());
  EXPECT_FALSE(JournalReader::Load(TempPath("nonexistent")).ok());
}

// --- Resilient sweep executor ----------------------------------------

ResilientOptions BaseOptions(const std::string& journal) {
  ResilientOptions options;
  options.sweep_seed = 7;
  options.journal_path = journal;
  options.experiment = "journal_test";
  options.config_digest = "journal_test|fixture=1";
  options.drain_on_signal = false;
  return options;
}

const std::vector<std::string> kLabels = {"p0", "p1", "p2"};
constexpr size_t kRuns = 4;

// Deterministic body: payload encodes identity, so replay mismatches
// are visible.
util::Result<std::string> OkBody(const AttemptContext& ctx) {
  return "point=" + std::to_string(ctx.point) +
         ",run=" + std::to_string(ctx.run) +
         ",seed=" + std::to_string(ctx.seed);
}

std::vector<std::string> Payloads(const ResilientReport& report) {
  std::vector<std::string> out;
  for (const RunStatus& slot : report.runs) out.push_back(slot.payload);
  return out;
}

TEST(ResilientSweep, DrainThenResumeIsByteIdentical) {
  util::ResetDrainForTest();
  const std::string path = TempPath("drain_resume");
  Engine engine(1);  // Single worker: the drain point is deterministic.

  // Uninterrupted reference.
  auto clean =
      RunResilientSweep(engine, kLabels, kRuns, BaseOptions(""), OkBody);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->runs.size(), kLabels.size() * kRuns);
  EXPECT_EQ(clean->executed, clean->runs.size());

  // Interrupted: request drain (as the signal handler would) after the
  // fifth run completes.
  ResilientOptions interrupted = BaseOptions(path);
  interrupted.drain_on_signal = true;
  size_t completed = 0;
  auto draining_body =
      [&](const AttemptContext& ctx) -> util::Result<std::string> {
    if (++completed == 5) util::RequestDrain();
    return OkBody(ctx);
  };
  auto partial =
      RunResilientSweep(engine, kLabels, kRuns, interrupted, draining_body);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->drained);
  EXPECT_EQ(partial->executed, 5u);
  EXPECT_EQ(partial->skipped, partial->runs.size() - 5);
  util::ResetDrainForTest();

  // Resume: replays the five journaled runs, executes the rest.
  ResilientOptions resume = BaseOptions("");
  resume.resume_path = path;
  auto resumed = RunResilientSweep(engine, kLabels, kRuns, resume, OkBody);
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(resumed->drained);
  EXPECT_EQ(resumed->replayed, 5u);
  EXPECT_EQ(resumed->executed, resumed->runs.size() - 5);
  EXPECT_EQ(Payloads(*resumed), Payloads(*clean));
}

TEST(ResilientSweep, ResumeFromCompleteJournalReplaysEverything) {
  util::ResetDrainForTest();
  const std::string path = TempPath("full_replay");
  Engine engine(2);
  auto first = RunResilientSweep(engine, kLabels, kRuns, BaseOptions(path),
                                 OkBody);
  ASSERT_TRUE(first.ok());

  ResilientOptions resume = BaseOptions("");
  resume.resume_path = path;
  size_t body_calls = 0;
  auto counting_body =
      [&](const AttemptContext& ctx) -> util::Result<std::string> {
    ++body_calls;
    return OkBody(ctx);
  };
  auto replayed =
      RunResilientSweep(engine, kLabels, kRuns, resume, counting_body);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(body_calls, 0u);  // Pure replay; nothing re-simulated.
  EXPECT_EQ(replayed->replayed, replayed->runs.size());
  EXPECT_EQ(Payloads(*replayed), Payloads(*first));
}

TEST(ResilientSweep, HeaderMismatchIsRejected) {
  util::ResetDrainForTest();
  const std::string path = TempPath("mismatch");
  Engine engine(1);
  ASSERT_TRUE(RunResilientSweep(engine, kLabels, kRuns, BaseOptions(path),
                                OkBody)
                  .ok());

  // Different flags → different digest → resume must refuse.
  ResilientOptions resume = BaseOptions("");
  resume.resume_path = path;
  resume.config_digest = "journal_test|fixture=2";
  auto swept = RunResilientSweep(engine, kLabels, kRuns, resume, OkBody);
  ASSERT_FALSE(swept.ok());
  EXPECT_EQ(swept.status().code(), util::StatusCode::kFailedPrecondition);

  // A different grid shape is refused too.
  ResilientOptions shape = BaseOptions("");
  shape.resume_path = path;
  EXPECT_FALSE(
      RunResilientSweep(engine, kLabels, kRuns + 1, shape, OkBody).ok());
}

TEST(ResilientSweep, RetrySucceedsWithForkedSeed) {
  util::ResetDrainForTest();
  const std::string path = TempPath("retry");
  Engine engine(1);
  ResilientOptions options = BaseOptions(path);
  options.max_retries = 2;
  // (point 1, run 2) fails on its first attempt only.
  auto flaky = [&](const AttemptContext& ctx) -> util::Result<std::string> {
    if (ctx.point == 1 && ctx.run == 2 && ctx.attempt == 0) {
      return util::UnavailableError("transient fault");
    }
    return OkBody(ctx);
  };
  auto report = RunResilientSweep(engine, kLabels, kRuns, options, flaky);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->failed, 0u);
  const RunStatus& slot = report->runs[1 * kRuns + 2];
  EXPECT_TRUE(slot.ok);
  EXPECT_EQ(slot.attempts, 2u);
  const uint64_t base = DeriveRunSeed(options.sweep_seed, kLabels[1], 2);
  EXPECT_EQ(slot.seed, ForkAttemptSeed(base, 1));
  EXPECT_NE(slot.seed, base);

  // The journal keeps the informational attempt-0 failure AND the
  // terminal success.
  auto journal = JournalReader::Load(path);
  ASSERT_TRUE(journal.ok());
  ASSERT_EQ(journal->failures.size(), 1u);
  EXPECT_EQ(journal->failures[0].index, 1 * kRuns + 2);
  EXPECT_EQ(journal->failures[0].attempt, 0u);
  EXPECT_EQ(journal->failures[0].reason, "transient fault");
  EXPECT_TRUE(journal->runs.at(1 * kRuns + 2).ok);
}

TEST(ResilientSweep, ExhaustedRetriesDegradeNotAbort) {
  util::ResetDrainForTest();
  const std::string path = TempPath("exhausted");
  Engine engine(2);
  ResilientOptions options = BaseOptions(path);
  options.max_retries = 1;
  auto doomed = [&](const AttemptContext& ctx) -> util::Result<std::string> {
    if (ctx.point == 0 && ctx.run == 0) {
      return util::UnavailableError("hopeless");
    }
    return OkBody(ctx);
  };
  auto report = RunResilientSweep(engine, kLabels, kRuns, options, doomed);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->failed, 1u);
  EXPECT_EQ(report->executed, report->runs.size());
  const RunStatus& slot = report->runs[0];
  EXPECT_FALSE(slot.ok);
  EXPECT_EQ(slot.attempts, 2u);  // 1 try + 1 retry.
  EXPECT_EQ(slot.payload, "hopeless");
  // Every other run completed: one bad point never aborts the grid.
  for (size_t i = 1; i < report->runs.size(); ++i) {
    EXPECT_TRUE(report->runs[i].ok) << i;
  }
  // The terminal failure is journaled, so a resume does NOT retry it.
  auto journal = JournalReader::Load(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_FALSE(journal->runs.at(0).ok);
  ResilientOptions resume = BaseOptions("");
  resume.resume_path = path;
  resume.max_retries = 1;
  size_t calls = 0;
  auto counting = [&](const AttemptContext& ctx) -> util::Result<std::string> {
    ++calls;
    return OkBody(ctx);
  };
  auto resumed = RunResilientSweep(engine, kLabels, kRuns, resume, counting);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(calls, 0u);
  EXPECT_FALSE(resumed->runs[0].ok);
  EXPECT_EQ(resumed->failed, 1u);
}

TEST(ResilientSweep, ResumeFromTornHeaderJournalStartsFresh) {
  // Regression: a worker SIGKILLed before its header line was fully
  // fsync'd leaves a torn/empty journal. Resuming from it must start
  // fresh (and truncate the torn bytes), not refuse the sweep.
  util::ResetDrainForTest();
  const std::string path = TempPath("torn_header_resume");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"type\":\"header\",\"ver", f);  // No newline: torn.
    std::fclose(f);
  }
  Engine engine(1);
  auto clean =
      RunResilientSweep(engine, kLabels, kRuns, BaseOptions(""), OkBody);
  ASSERT_TRUE(clean.ok());

  ResilientOptions resume = BaseOptions(path);
  resume.resume_path = path;
  auto swept = RunResilientSweep(engine, kLabels, kRuns, resume, OkBody);
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept->replayed, 0u);
  EXPECT_EQ(swept->executed, swept->runs.size());
  EXPECT_EQ(Payloads(*swept), Payloads(*clean));

  // The rewritten journal is whole again: a second resume replays all.
  auto reloaded = JournalReader::Load(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_FALSE(reloaded->torn_header);
  EXPECT_EQ(reloaded->runs.size(), swept->runs.size());
}

TEST(ResilientSweep, ForkAttemptSeedContract) {
  EXPECT_EQ(ForkAttemptSeed(123, 0), 123u);  // Attempt 0 = unchanged.
  EXPECT_NE(ForkAttemptSeed(123, 1), 123u);
  EXPECT_NE(ForkAttemptSeed(123, 1), ForkAttemptSeed(123, 2));
  EXPECT_EQ(ForkAttemptSeed(123, 1), ForkAttemptSeed(123, 1));
}

}  // namespace
}  // namespace ipda::exp
