// obs/metrics.h unit tests: instrument semantics, snapshot determinism,
// and the JSONL round trip that `ipda_sim --metrics` files rely on.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ipda::obs {
namespace {

TEST(Counter, IncAddSetSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  // Set is idempotent mirroring for pull-model collectors: re-collection
  // must never double-count.
  c.Set(7);
  c.Set(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(Gauge, SetAndSetMax) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.SetMax(1.0);  // Below the high-water mark: ignored.
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.SetMax(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
  g.Set(0.0);  // Plain Set still overwrites.
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketBoundariesAreInclusive) {
  Histogram h({10.0, 100.0});
  h.Observe(10.0);   // v <= bounds[0] -> bucket 0.
  h.Observe(10.5);   // -> bucket 1.
  h.Observe(100.0);  // -> bucket 1.
  h.Observe(1e6);    // -> overflow bucket.
  ASSERT_EQ(h.counts().size(), 3u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0 + 10.5 + 100.0 + 1e6);
}

TEST(Registry, RegistrationIsIdempotentAndPointersAreStable) {
  Registry registry;
  Counter* a = registry.GetCounter("net.bytes_sent");
  Counter* b = registry.GetCounter("net.bytes_sent");
  EXPECT_EQ(a, b);
  a->Add(5);
  // Registering many more instruments must not move the first cell.
  for (int i = 0; i < 64; ++i) {
    std::string counter_name = "c";
    counter_name += std::to_string(i);
    registry.GetCounter(counter_name);
    std::string gauge_name = "g";
    gauge_name += std::to_string(i);
    registry.GetGauge(gauge_name);
  }
  EXPECT_EQ(registry.GetCounter("net.bytes_sent"), a);
  EXPECT_EQ(a->value(), 5u);

  // Histogram identity includes its bounds: re-registration ignores the
  // new bounds and returns the original cell.
  Histogram* h = registry.GetHistogram("net.node_bytes", {1.0, 2.0});
  EXPECT_EQ(registry.GetHistogram("net.node_bytes", {99.0}), h);
  EXPECT_EQ(h->bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(Snapshot, SortedByNameRegardlessOfRegistrationOrder) {
  Registry forward, reverse;
  forward.GetCounter("alpha")->Set(1);
  forward.GetCounter("beta")->Set(2);
  forward.GetGauge("gamma")->Set(3.0);
  reverse.GetGauge("gamma")->Set(3.0);
  reverse.GetCounter("beta")->Set(2);
  reverse.GetCounter("alpha")->Set(1);

  const Snapshot a = TakeSnapshot(forward);
  const Snapshot b = TakeSnapshot(reverse);
  EXPECT_EQ(SnapshotJsonFields(a), SnapshotJsonFields(b));
  ASSERT_EQ(a.counters.size(), 2u);
  EXPECT_EQ(a.counters[0].first, "alpha");
  EXPECT_EQ(a.counters[1].first, "beta");
}

TEST(Snapshot, LookupHelpersFallBackWhenAbsent) {
  Registry registry;
  registry.GetCounter("present")->Set(3);
  registry.GetGauge("level")->Set(0.5);
  const Snapshot snapshot = TakeSnapshot(registry);
  EXPECT_DOUBLE_EQ(snapshot.CounterOr("present", -1.0), 3.0);
  EXPECT_DOUBLE_EQ(snapshot.CounterOr("absent", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(snapshot.GaugeOr("level", -1.0), 0.5);
  EXPECT_DOUBLE_EQ(snapshot.GaugeOr("absent", -1.0), -1.0);
}

TEST(Snapshot, JsonRoundTripPreservesEveryInstrument) {
  Registry registry;
  registry.GetCounter("sim.events_run")->Set(123456789);
  registry.GetGauge("agg.completeness_red")->Set(0.8125);
  registry.GetGauge("net.energy_total_j")->Set(0.1234567890123456789);
  Histogram* h = registry.GetHistogram("net.node_bytes", {64.0, 256.0});
  h->Observe(10.0);
  h->Observe(200.0);
  h->Observe(9000.0);
  Trace trace;
  trace.Span("ipda.slicing", 1000, 2000);
  trace.Span("ipda.assembly", 2000, 3500);

  const Snapshot snapshot = TakeSnapshot(registry, &trace);
  const std::string line = SnapshotJsonLine(snapshot, /*run=*/4, /*seed=*/99);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  ParsedLine parsed;
  std::string error;
  ASSERT_TRUE(ParseMetricsLine(line, parsed, &error)) << error;
  EXPECT_EQ(parsed.kind, "run_metrics");
  EXPECT_EQ(parsed.run, 4u);
  EXPECT_EQ(parsed.seed, 99u);
  ASSERT_EQ(parsed.snapshot.counters.size(), 1u);
  EXPECT_EQ(parsed.snapshot.counters[0].second, 123456789u);
  EXPECT_DOUBLE_EQ(parsed.snapshot.GaugeOr("agg.completeness_red", -1), 0.8125);
  // %.17g must round-trip doubles exactly.
  EXPECT_EQ(parsed.snapshot.GaugeOr("net.energy_total_j", -1),
            0.1234567890123456789);
  ASSERT_EQ(parsed.snapshot.histograms.size(), 1u);
  const HistogramData& hd = parsed.snapshot.histograms[0].second;
  EXPECT_EQ(hd.bounds, (std::vector<double>{64.0, 256.0}));
  EXPECT_EQ(hd.counts, (std::vector<uint64_t>{1, 1, 1}));
  EXPECT_EQ(hd.count, 3u);
  EXPECT_DOUBLE_EQ(hd.sum, 9210.0);
  ASSERT_EQ(parsed.snapshot.spans.size(), 2u);
  EXPECT_EQ(parsed.snapshot.spans[0].name, "ipda.slicing");
  EXPECT_EQ(parsed.snapshot.spans[0].begin_ns, 1000);
  EXPECT_EQ(parsed.snapshot.spans[1].end_ns, 3500);

  // Re-serializing the parsed snapshot reproduces the bytes: the format
  // is canonical, not merely parseable.
  EXPECT_EQ(SnapshotJsonLine(parsed.snapshot, 4, 99), line);
}

TEST(Snapshot, HeaderLineRoundTrip) {
  const std::string line = MetricsHeaderLine("ipda_sim", /*runs=*/12,
                                             /*seed=*/0xABC);
  ParsedLine parsed;
  std::string error;
  ASSERT_TRUE(ParseMetricsLine(line, parsed, &error)) << error;
  EXPECT_EQ(parsed.kind, "metrics_header");
  EXPECT_EQ(parsed.experiment, "ipda_sim");
  EXPECT_EQ(parsed.runs, 12u);
  EXPECT_EQ(parsed.seed, 0xABCu);
}

TEST(Snapshot, ParserRejectsMalformedLines) {
  ParsedLine parsed;
  std::string error;
  EXPECT_FALSE(ParseMetricsLine("", parsed, &error));
  EXPECT_FALSE(ParseMetricsLine("{}", parsed, &error));
  EXPECT_FALSE(ParseMetricsLine("{\"kind\":\"bogus\"}", parsed, &error));
  EXPECT_FALSE(
      ParseMetricsLine("{\"kind\":\"run_metrics\",\"run\":", parsed, &error));
  // A well-formed header but for a \u escape with non-hex digits.
  std::string bad_escape = MetricsHeaderLine("a_b", 1, 1);
  bad_escape.replace(bad_escape.find("a_b"), 3, "a\\u00zzb");
  EXPECT_FALSE(ParseMetricsLine(bad_escape, parsed, &error)) << bad_escape;
  EXPECT_FALSE(error.empty());
}

TEST(Trace, SpansKeepRecordedOrder) {
  Trace trace;
  trace.Span("b", 10, 20);
  trace.Span("a", 0, 5);
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[0].name, "b");
  EXPECT_EQ(trace.spans()[1].name, "a");
  trace.Clear();
  EXPECT_TRUE(trace.spans().empty());
}

}  // namespace
}  // namespace ipda::obs
