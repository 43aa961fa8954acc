// The bench sweep driver (bench/bench_common.h): the record codec, the
// flat cell layout and its legacy seeds, the fold's determinism across
// --jobs, budgets and drain/resume, the failure policies, and the
// rejection of malformed count inputs.

#include "bench_common.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/engine.h"
#include "exp/journal.h"
#include "util/io.h"
#include "util/random.h"
#include "util/signal.h"

namespace ipda::bench {
namespace {

BenchOptions Parse(std::vector<std::string> args,
                   BenchKind kind = BenchKind::kSweep) {
  args.insert(args.begin(), "bench_common_test");
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return ParseBenchOptions(static_cast<int>(argv.size()), argv.data(), kind);
}

std::string TempPath(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "bench_common_test_" + name + ".jsonl";
  std::remove(path.c_str());
  return path;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Record, RoundTripIsBitExact) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           -0.0,
                           4.9406564584124654e-324,  // Smallest subnormal.
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::infinity(),
                           9007199254740993.0,
                           123456789.0};
  Record record;
  for (size_t i = 0; i < std::size(values); ++i) {
    record.Set("f" + std::to_string(i), values[i]);
  }
  record.Set("arm.nan", std::nan(""));
  const auto decoded = Record::Decode(record.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->fields().size(), record.fields().size());
  for (size_t i = 0; i < std::size(values); ++i) {
    const double* value = decoded->Find("f" + std::to_string(i));
    ASSERT_NE(value, nullptr) << i;
    EXPECT_TRUE(SameBits(*value, values[i])) << i;
  }
  EXPECT_TRUE(std::isnan(*decoded->Find("arm.nan")));
  // Absent stays absent; an empty record is an empty payload.
  EXPECT_EQ(decoded->Find("missing"), nullptr);
  EXPECT_EQ(Record().Encode(), "");
  const auto empty = Record::Decode("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->fields().empty());
}

TEST(Record, SetOverwritesAndRejectsBadNames) {
  Record record;
  record.Set("x", 1.0).Set("x", 2.0);
  ASSERT_EQ(record.fields().size(), 1u);
  EXPECT_EQ(*record.Find("x"), 2.0);
  EXPECT_DEATH(record.Set("a=b", 1.0), "CHECK failed");
  EXPECT_DEATH(record.Set("", 1.0), "CHECK failed");
}

TEST(Record, DecodeRejectsMalformedPayloads) {
  for (const char* payload :
       {"x", "x=", "=1", "x=1;", ";x=1", "x=1;x=2", "x=abc", "x=1.5junk",
        "x y=1", "0.5", "x=1,y=2"}) {
    EXPECT_FALSE(Record::Decode(payload).ok()) << payload;
  }
}

// Uneven cells: a legacy formula, an empty cell, a derived-seed cell, and
// a ×4 cell, as ablation and fig5 lay them out.
SweepSpec UnevenSpec() {
  SweepSpec spec{"bench_common_test", 0x5EED, "", {}, false};
  spec.cells.push_back(
      {"legacy", 3, [](size_t r) { return 0xAB1A + r * 6151; }, ""});
  spec.cells.push_back({"empty", 0, nullptr, ""});
  spec.cells.push_back({"derived", 2, nullptr, ""});
  spec.cells.push_back(
      {"x4", 12, [](size_t r) { return util::Mix64(20000, r * 131 + 2); },
       ""});
  return spec;
}

TEST(CellGrid, UniformCellsKeepTheRectangularIndexAndDerivedSeeds) {
  SweepSpec spec{"uniform", 0xFA117, "", {}, true};
  for (const char* label : {"crash=0.00,loss=0.00", "crash=0.00,loss=0.05",
                            "crash=0.05,loss=0.00"}) {
    spec.cells.push_back({label, 4, nullptr, ""});
  }
  const CellGrid grid(spec);
  ASSERT_EQ(grid.total(), 12u);
  for (size_t cell = 0; cell < 3; ++cell) {
    for (size_t run = 0; run < 4; ++run) {
      const size_t flat = cell * 4 + run;
      EXPECT_EQ(grid.Locate(flat), std::make_pair(cell, run));
      EXPECT_EQ(grid.BaseSeed(flat),
                exp::DeriveRunSeed(0xFA117, spec.cells[cell].label, run));
    }
  }
}

TEST(CellGrid, UnevenCellsFlattenInCellOrderWithLegacySeeds) {
  const SweepSpec spec = UnevenSpec();
  const CellGrid grid(spec);
  ASSERT_EQ(grid.total(), 17u);
  size_t flat = 0;
  for (size_t cell = 0; cell < spec.cells.size(); ++cell) {
    for (size_t run = 0; run < spec.cells[cell].runs; ++run, ++flat) {
      EXPECT_EQ(grid.Locate(flat), std::make_pair(cell, run)) << flat;
    }
  }
  EXPECT_EQ(grid.BaseSeed(0), 0xAB1Au);
  EXPECT_EQ(grid.BaseSeed(2), 0xAB1Au + 2 * 6151);
  EXPECT_EQ(grid.BaseSeed(3), exp::DeriveRunSeed(0x5EED, "derived", 0));
  EXPECT_EQ(grid.BaseSeed(4), exp::DeriveRunSeed(0x5EED, "derived", 1));
  EXPECT_EQ(grid.BaseSeed(5 + 7), util::Mix64(20000, 7 * 131 + 2));
}

// Seeds reach the body: each run records its seed (low 40 bits, exact
// in a double) and run index; per cell the sums must match the layout.
TEST(RunSweep, BodySeesEveryCellRunAndSeed) {
  const SweepSpec spec = UnevenSpec();
  const CellGrid grid(spec);
  const SweepResult result = RunSweep(
      Parse({"--jobs=3"}), "bench_common_test", spec,
      [](const RunContext& ctx) -> util::Result<Record> {
        return Record()
            .Set("seed", static_cast<double>(ctx.seed & ((1ull << 40) - 1)))
            .Set("run", static_cast<double>(ctx.run));
      });
  size_t flat = 0;
  for (size_t cell = 0; cell < spec.cells.size(); ++cell) {
    const size_t runs = spec.cells[cell].runs;
    double seeds = 0.0;
    for (size_t run = 0; run < runs; ++run, ++flat) {
      seeds += static_cast<double>(grid.BaseSeed(flat) & ((1ull << 40) - 1));
    }
    EXPECT_EQ(result.ok_runs(cell), runs) << cell;
    EXPECT_EQ(result.Get(cell, "seed").sum, seeds) << cell;
    EXPECT_EQ(result.Get(cell, "run").total(), runs * (runs - 1) / 2)
        << cell;
  }
  EXPECT_EQ(result.failed_runs(), 0u);
}

// A deterministic body with uneven cost, fractional values (so any
// reordering would move the Welford bits), absent fields and a pool.
SweepSpec MixSpec() {
  SweepSpec spec{"bench_common_mix", 0xC0FFEE, "", {}, true};
  for (size_t c = 0; c < 5; ++c) {
    spec.cells.push_back(
        {"cell" + std::to_string(c), 3 + c * 5, nullptr, c % 2 ? "odd" : ""});
  }
  return spec;
}

util::Result<Record> MixBody(const RunContext& ctx) {
  uint64_t h = ctx.seed;
  for (size_t k = 0; k < 2000 + (ctx.seed % 7) * 3000; ++k) {
    h = util::Mix64(h, k);
  }
  Record record;
  record.Set("value", static_cast<double>(h >> 11) / 9007199254740992.0)
      .Set("flag", h & 1);
  if (h % 3 == 0) record.Set("sometimes", static_cast<double>(h % 1000) / 7);
  return record;
}

void ExpectSameFold(const FieldFold& a, const FieldFold& b,
                    const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_TRUE(SameBits(a.sum, b.sum)) << what;
  EXPECT_TRUE(SameBits(a.summary.mean(), b.summary.mean())) << what;
  EXPECT_TRUE(SameBits(a.summary.variance(), b.summary.variance())) << what;
  EXPECT_TRUE(SameBits(a.summary.min(), b.summary.min())) << what;
  EXPECT_TRUE(SameBits(a.summary.max(), b.summary.max())) << what;
}

void ExpectSameResult(const SweepResult& a, const SweepResult& b,
                      size_t cells) {
  EXPECT_EQ(a.failed_runs(), b.failed_runs());
  for (size_t cell = 0; cell < cells; ++cell) {
    EXPECT_EQ(a.ok_runs(cell), b.ok_runs(cell));
    for (const char* field : {"value", "flag", "sometimes"}) {
      ExpectSameFold(a.Get(cell, field), b.Get(cell, field),
                     "cell " + std::to_string(cell) + " " + field);
    }
  }
  ExpectSameFold(a.Pool("odd", "value"), b.Pool("odd", "value"), "pool");
}

TEST(RunSweep, JobsAndBudgetNeverChangeTheFold) {
  const SweepSpec spec = MixSpec();
  const SweepResult serial =
      RunSweep(Parse({"--jobs=1"}), "t", spec, MixBody);
  const SweepResult parallel =
      RunSweep(Parse({"--jobs=8"}), "t", spec, MixBody);
  const SweepResult spilled = RunSweep(
      Parse({"--jobs=8", "--agg-memory-budget=1k"}), "t", spec, MixBody);
  ExpectSameResult(serial, parallel, spec.cells.size());
  ExpectSameResult(serial, spilled, spec.cells.size());

  // The pool folds cells 1 and 3 in flat order: the same Welford
  // sequence as one cell holding both cells' runs back to back.
  EXPECT_EQ(serial.Pool("odd", "value").count(),
            serial.Get(1, "value").count() + serial.Get(3, "value").count());
  EXPECT_GT(serial.Get(0, "sometimes").count(), 0u);
  EXPECT_LT(serial.Get(0, "sometimes").count(), serial.ok_runs(0));
}

TEST(RunSweep, DrainThenResumeMatchesAnUninterruptedSweep) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const SweepSpec spec = MixSpec();
  const std::string journal = TempPath("drain");
  // The child drains after cell 2's first run: runs not yet started are
  // left for the resume, and nothing is printed to stdout.
  EXPECT_EXIT(
      {
        RunSweep(Parse({"--jobs=1", "--journal=" + journal}), "t", spec,
                 [](const RunContext& ctx) {
                   if (ctx.cell == 2 && ctx.run == 0) util::RequestDrain();
                   return MixBody(ctx);
                 });
        std::exit(0);
      },
      ::testing::ExitedWithCode(util::kDrainExitCode),
      "drained with [0-9]+/65 runs journaled; resume with: t --resume");
  const auto partial = exp::JournalReader::Load(journal);
  ASSERT_TRUE(partial.ok());
  EXPECT_GT(partial->runs.size(), 0u);
  EXPECT_LT(partial->runs.size(), 65u);

  const SweepResult resumed = RunSweep(
      Parse({"--jobs=4", "--resume=" + journal}), "t", spec, MixBody);
  const SweepResult clean =
      RunSweep(Parse({"--jobs=4"}), "t", spec, MixBody);
  ExpectSameResult(clean, resumed, spec.cells.size());
}

TEST(RunSweep, UndecodablePayloadCountsAsAFailedRun) {
  const SweepSpec spec = MixSpec();
  const std::string journal = TempPath("complete");
  const SweepResult clean = RunSweep(
      Parse({"--jobs=2", "--journal=" + journal}), "t", spec, MixBody);
  ASSERT_EQ(clean.failed_runs(), 0u);

  // Re-write the journal with run 1's payload garbled (a valid record,
  // checksum included, whose payload no longer decodes).
  auto loaded = exp::JournalReader::Load(journal);
  ASSERT_TRUE(loaded.ok());
  const std::string garbled = TempPath("garbled");
  {
    auto writer = exp::JournalWriter::Create(garbled, loaded->header);
    ASSERT_TRUE(writer.ok());
    for (auto [index, record] : loaded->runs) {
      if (index == 1) record.payload = "value=0.5;flag";
      ASSERT_TRUE(writer->WriteRun(record).ok());
    }
  }
  const SweepResult resumed = RunSweep(
      Parse({"--jobs=2", "--resume=" + garbled}), "t", spec, MixBody);
  EXPECT_EQ(resumed.failed_runs(), 1u);
  EXPECT_EQ(resumed.ok_runs(0), clean.ok_runs(0) - 1);
  EXPECT_EQ(resumed.Get(0, "value").count(), clean.Get(0, "value").count() - 1);
  EXPECT_EQ(resumed.ok_runs(1), clean.ok_runs(1));
}

TEST(RunSweep, FailedRunsDegradeOrExitByPolicy) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SweepSpec spec = MixSpec();
  const RunBody failing = [](const RunContext& ctx) -> util::Result<Record> {
    if (ctx.cell == 1 && ctx.run == 2) {
      return util::InternalError("injected failure");
    }
    return MixBody(ctx);
  };
  const SweepResult degraded =
      RunSweep(Parse({"--jobs=2"}), "t", spec, failing);
  EXPECT_EQ(degraded.failed_runs(), 1u);
  EXPECT_EQ(degraded.ok_runs(1), spec.cells[1].runs - 1);

  spec.tolerate_failures = false;
  EXPECT_EXIT(RunSweep(Parse({"--jobs=2"}), "t", spec, failing),
              ::testing::ExitedWithCode(1),
              "1 of 65 runs failed; first: cell 'cell1' run 2: "
              ".*injected failure");
}

// Every malformed count input exits 2 with a diagnostic instead of
// wrapping to a huge unsigned value or silently using a default.
TEST(BenchInputs, MalformedCountsExitTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  struct Case {
    const char* env_name;  // Null: no environment override.
    const char* env_value;
    std::vector<std::string> args;
    BenchKind kind;
    const char* message;
  };
  const Case cases[] = {
      {nullptr, nullptr, {"--max-retries=-1"}, BenchKind::kSweep,
       "--max-retries expects a non-negative integer, got '-1'"},
      {nullptr, nullptr, {"--event-budget=-1"}, BenchKind::kSweep,
       "--event-budget expects a non-negative integer"},
      // A removed flag is rejected, not ignored.
      {nullptr, nullptr, {"--fabric=2"}, BenchKind::kSweep,
       "unknown flag --fabric"},
      // NaN and infinity once disarmed or tripped the watchdog.
      {nullptr, nullptr, {"--run-deadline=-1"}, BenchKind::kSweep,
       "--run-deadline expects a finite number >= 0, got '-1'"},
      {nullptr, nullptr, {"--run-deadline=nan"}, BenchKind::kSweep,
       "--run-deadline expects a finite number >= 0, got 'nan'"},
      {nullptr, nullptr, {"--run-deadline=inf"}, BenchKind::kSweep,
       "--run-deadline expects a finite number >= 0, got 'inf'"},
      {nullptr, nullptr, {"--jobs=-4"}, BenchKind::kAnalytic,
       "--jobs expects a non-negative integer"},
      {nullptr, nullptr, {"--max-retries=4294967296"}, BenchKind::kSweep,
       "--max-retries must be at most 4294967295"},
      {nullptr, nullptr, {"--runs=3"}, BenchKind::kSweep,
       "unknown flag --runs"},
      // XTEA is the one link cipher: no bench takes --cipher.
      {nullptr, nullptr, {"--cipher=xtea"}, BenchKind::kSweep,
       "unknown flag --cipher"},
      {nullptr, nullptr, {"--cipher=xtea"}, BenchKind::kAnalytic,
       "unknown flag --cipher"},
      {nullptr, nullptr, {"--journal"}, BenchKind::kSweep,
       "--journal is missing a value"},
      {"IPDA_BENCH_JOBS", "many", {}, BenchKind::kAnalytic,
       "IPDA_BENCH_JOBS expects a non-negative integer, got 'many'"},
      {"IPDA_BENCH_JOBS", "-1", {}, BenchKind::kSweep,
       "IPDA_BENCH_JOBS expects a non-negative integer"},
  };
  for (const Case& c : cases) {
    EXPECT_EXIT(
        {
          if (c.env_name != nullptr) setenv(c.env_name, c.env_value, 1);
          Parse(c.args, c.kind);
          std::exit(0);
        },
        ::testing::ExitedWithCode(2), c.message)
        << (c.args.empty() ? c.env_name : c.args[0]);
  }

  struct EnvCase {
    const char* name;
    const char* value;
    const char* message;
  };
  const EnvCase env_cases[] = {
      {"IPDA_BENCH_RUNS", "abc",
       "IPDA_BENCH_RUNS expects a non-negative integer, got 'abc'"},
      {"IPDA_BENCH_RUNS", "-1", "IPDA_BENCH_RUNS expects"},
      {"IPDA_BENCH_RUNS", "0", "IPDA_BENCH_RUNS must be at least 1"},
      {"IPDA_BENCH_RUNS", "5x", "IPDA_BENCH_RUNS expects"},
      {"IPDA_BENCH_RUNS", "99999999999999999999999",
       "IPDA_BENCH_RUNS must be at most"},
      {"IPDA_BENCH_MAX_NODES", "-5", "IPDA_BENCH_MAX_NODES expects"},
  };
  for (const EnvCase& c : env_cases) {
    EXPECT_EXIT(
        {
          setenv(c.name, c.value, 1);
          (void)EnvCount(c.name, 5);
          std::exit(0);
        },
        ::testing::ExitedWithCode(2), c.message)
        << c.name << "=" << c.value;
  }
}

TEST(BenchInputs, WellFormedCountsParse) {
  const BenchOptions options =
      Parse({"--jobs=3", "--max-retries=2", "--event-budget=500",
             "--agg-memory-budget=64k"},
            BenchKind::kSweep);
  EXPECT_EQ(options.jobs, 3u);
  EXPECT_EQ(options.max_retries, 2u);
  EXPECT_EQ(options.event_budget, 500u);
  EXPECT_EQ(options.agg_memory_budget, 64u * 1024u);
  EXPECT_EQ(EnvCount("IPDA_BENCH_TEST_UNSET_VARIABLE", 7), 7u);
}

// The canonical flag string is hashed into every journal header, so a
// change to it strands the journals earlier builds wrote: both literals
// are the strings those builds hashed. Scheduling and IO flags stay out.
TEST(BenchInputs, CanonicalFlagStringIsPinned) {
  EXPECT_EQ(Parse({"--jobs=3", "--journal=j.jsonl", "--run-deadline=5",
                   "--event-budget=500", "--max-retries=2",
                   "--agg-memory-budget=64k"},
                  BenchKind::kSweep)
                .canonical,
            "event-budget=500,max-retries=2");
  EXPECT_EQ(Parse({}, BenchKind::kSweep).canonical,
            "event-budget=0,max-retries=0");
}

}  // namespace
}  // namespace ipda::bench
