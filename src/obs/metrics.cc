#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <utility>

#include "util/json.h"

namespace ipda::obs {
namespace {

// One metrics-file format version; bumped when the line grammar changes.
constexpr unsigned kMetricsVersion = 1;

void AppendString(std::string& out, std::string_view s) {
  out += '"';
  out += util::JsonEscape(s);
  out += '"';
}

void AppendU64(std::string& out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

// %.17g round-trips every double exactly, so replayed and re-parsed
// snapshots serialize to the same bytes a live run produced.
void AppendDouble(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

Counter* Registry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

double Snapshot::CounterOr(std::string_view name, double fallback) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return static_cast<double>(v);
  }
  return fallback;
}

double Snapshot::GaugeOr(std::string_view name, double fallback) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return fallback;
}

Snapshot TakeSnapshot(const Registry& registry, const Trace* trace) {
  Snapshot snap;
  snap.counters.reserve(registry.counters().size());
  for (const auto& [name, cell] : registry.counters()) {
    snap.counters.emplace_back(name, cell->value());
  }
  snap.gauges.reserve(registry.gauges().size());
  for (const auto& [name, cell] : registry.gauges()) {
    snap.gauges.emplace_back(name, cell->value());
  }
  snap.histograms.reserve(registry.histograms().size());
  for (const auto& [name, cell] : registry.histograms()) {
    HistogramData data;
    data.bounds = cell->bounds();
    data.counts = cell->counts();
    data.count = cell->count();
    data.sum = cell->sum();
    snap.histograms.emplace_back(name, std::move(data));
  }
  if (trace != nullptr) snap.spans = trace->spans();
  return snap;
}

std::string SnapshotJsonFields(const Snapshot& snapshot) {
  std::string out;
  out += "\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i > 0) out += ',';
    AppendString(out, snapshot.counters[i].first);
    out += ':';
    AppendU64(out, snapshot.counters[i].second);
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i > 0) out += ',';
    AppendString(out, snapshot.gauges[i].first);
    out += ':';
    AppendDouble(out, snapshot.gauges[i].second);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    if (i > 0) out += ',';
    const auto& [name, h] = snapshot.histograms[i];
    AppendString(out, name);
    out += ":{\"bounds\":[";
    for (size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out += ',';
      AppendDouble(out, h.bounds[b]);
    }
    out += "],\"counts\":[";
    for (size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out += ',';
      AppendU64(out, h.counts[b]);
    }
    out += "],\"count\":";
    AppendU64(out, h.count);
    out += ",\"sum\":";
    AppendDouble(out, h.sum);
    out += '}';
  }
  out += "},\"spans\":[";
  for (size_t i = 0; i < snapshot.spans.size(); ++i) {
    if (i > 0) out += ',';
    const SpanData& span = snapshot.spans[i];
    out += "{\"name\":";
    AppendString(out, span.name);
    out += ",\"begin_ns\":";
    AppendU64(out, static_cast<uint64_t>(span.begin_ns));
    out += ",\"end_ns\":";
    AppendU64(out, static_cast<uint64_t>(span.end_ns));
    out += '}';
  }
  out += ']';
  return out;
}

std::string SnapshotJsonLine(const Snapshot& snapshot, uint64_t run,
                             uint64_t seed) {
  std::string out = "{\"kind\":\"run_metrics\",\"run\":";
  AppendU64(out, run);
  out += ",\"seed\":";
  AppendU64(out, seed);
  out += ',';
  out += SnapshotJsonFields(snapshot);
  out += "}\n";
  return out;
}

std::string MetricsHeaderLine(std::string_view experiment, uint64_t runs,
                              uint64_t seed) {
  std::string out = "{\"kind\":\"metrics_header\",\"v\":";
  AppendU64(out, kMetricsVersion);
  out += ",\"experiment\":";
  AppendString(out, experiment);
  out += ",\"runs\":";
  AppendU64(out, runs);
  out += ",\"seed\":";
  AppendU64(out, seed);
  out += "}\n";
  return out;
}

namespace {

// Recursive-descent reader for exactly the JSON subset the emitters above
// produce (string keys; number/string/object/array values; no nulls or
// booleans). Strings decode through util::JsonUnescape.
class LineReader {
 public:
  explicit LineReader(std::string_view s) : s_(s) {}

  bool Fail(const std::string& message, std::string* error) {
    if (error != nullptr) {
      *error = message + " at offset " + std::to_string(i_);
    }
    return false;
  }

  void SkipWs() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (i_ >= s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }

  bool Peek(char c) {
    SkipWs();
    return i_ < s_.size() && s_[i_] == c;
  }

  bool ParseString(std::string& out, std::string* error) {
    if (!Consume('"')) return Fail("expected string", error);
    const size_t begin = i_;
    while (i_ < s_.size() && s_[i_] != '"') i_ += s_[i_] == '\\' ? 2 : 1;
    if (i_ >= s_.size()) return Fail("unterminated string", error);
    util::Result<std::string> decoded =
        util::JsonUnescape(s_.substr(begin, i_ - begin));
    if (!decoded.ok()) return Fail(decoded.status().ToString(), error);
    out = std::move(decoded).value();
    ++i_;
    return true;
  }

  bool ParseDouble(double& out, std::string* error) {
    SkipWs();
    const std::string num(s_.substr(i_, 32));
    char* end = nullptr;
    out = std::strtod(num.c_str(), &end);
    if (end == num.c_str()) return Fail("expected number", error);
    i_ += static_cast<size_t>(end - num.c_str());
    return true;
  }

  bool ParseU64(uint64_t& out, std::string* error) {
    SkipWs();
    const std::string num(s_.substr(i_, 24));
    char* end = nullptr;
    out = std::strtoull(num.c_str(), &end, 10);
    if (end == num.c_str()) return Fail("expected integer", error);
    i_ += static_cast<size_t>(end - num.c_str());
    return true;
  }

  bool AtEnd() {
    SkipWs();
    return i_ >= s_.size();
  }

 private:
  std::string_view s_;
  size_t i_ = 0;
};

// Parses {"name":number,...} with the given per-entry sink. Counters
// (T = uint64_t) parse as exact integers: a 64-bit value such as
// sim.dispatch_digest would not survive a round trip through double.
template <typename T, typename Sink>
bool ParseNumberMap(LineReader& r, std::string* error, Sink&& sink) {
  if (!r.Consume('{')) return r.Fail("expected object", error);
  if (r.Consume('}')) return true;
  do {
    std::string key;
    if (!r.ParseString(key, error)) return false;
    if (!r.Consume(':')) return r.Fail("expected ':'", error);
    T value{};
    if constexpr (std::is_same_v<T, uint64_t>) {
      if (!r.ParseU64(value, error)) return false;
    } else {
      if (!r.ParseDouble(value, error)) return false;
    }
    sink(std::move(key), value);
  } while (r.Consume(','));
  if (!r.Consume('}')) return r.Fail("expected '}'", error);
  return true;
}

bool ParseDoubleArray(LineReader& r, std::vector<double>& out,
                      std::string* error) {
  if (!r.Consume('[')) return r.Fail("expected array", error);
  out.clear();
  if (r.Consume(']')) return true;
  do {
    double v = 0.0;
    if (!r.ParseDouble(v, error)) return false;
    out.push_back(v);
  } while (r.Consume(','));
  if (!r.Consume(']')) return r.Fail("expected ']'", error);
  return true;
}

bool ParseHistograms(LineReader& r, Snapshot& snap, std::string* error) {
  if (!r.Consume('{')) return r.Fail("expected object", error);
  if (r.Consume('}')) return true;
  do {
    std::string name;
    if (!r.ParseString(name, error)) return false;
    if (!r.Consume(':')) return r.Fail("expected ':'", error);
    if (!r.Consume('{')) return r.Fail("expected histogram object", error);
    HistogramData h;
    do {
      std::string key;
      if (!r.ParseString(key, error)) return false;
      if (!r.Consume(':')) return r.Fail("expected ':'", error);
      if (key == "bounds") {
        if (!ParseDoubleArray(r, h.bounds, error)) return false;
      } else if (key == "counts") {
        std::vector<double> counts;
        if (!ParseDoubleArray(r, counts, error)) return false;
        h.counts.assign(counts.begin(), counts.end());
      } else if (key == "count") {
        if (!r.ParseU64(h.count, error)) return false;
      } else if (key == "sum") {
        if (!r.ParseDouble(h.sum, error)) return false;
      } else {
        return r.Fail("unknown histogram field '" + key + "'", error);
      }
    } while (r.Consume(','));
    if (!r.Consume('}')) return r.Fail("expected '}'", error);
    snap.histograms.emplace_back(std::move(name), std::move(h));
  } while (r.Consume(','));
  if (!r.Consume('}')) return r.Fail("expected '}'", error);
  return true;
}

bool ParseSpans(LineReader& r, Snapshot& snap, std::string* error) {
  if (!r.Consume('[')) return r.Fail("expected array", error);
  if (r.Consume(']')) return true;
  do {
    if (!r.Consume('{')) return r.Fail("expected span object", error);
    SpanData span;
    do {
      std::string key;
      if (!r.ParseString(key, error)) return false;
      if (!r.Consume(':')) return r.Fail("expected ':'", error);
      if (key == "name") {
        if (!r.ParseString(span.name, error)) return false;
      } else if (key == "begin_ns" || key == "end_ns") {
        uint64_t v = 0;
        if (!r.ParseU64(v, error)) return false;
        (key == "begin_ns" ? span.begin_ns : span.end_ns) =
            static_cast<int64_t>(v);
      } else {
        return r.Fail("unknown span field '" + key + "'", error);
      }
    } while (r.Consume(','));
    if (!r.Consume('}')) return r.Fail("expected '}'", error);
    snap.spans.push_back(std::move(span));
  } while (r.Consume(','));
  if (!r.Consume(']')) return r.Fail("expected ']'", error);
  return true;
}

}  // namespace

bool ParseMetricsLine(std::string_view line, ParsedLine& out,
                      std::string* error) {
  out = ParsedLine{};
  LineReader r(line);
  if (!r.Consume('{')) return r.Fail("expected '{'", error);
  if (r.Consume('}')) return r.Fail("empty record", error);
  do {
    std::string key;
    if (!r.ParseString(key, error)) return false;
    if (!r.Consume(':')) return r.Fail("expected ':'", error);
    if (key == "kind") {
      if (!r.ParseString(out.kind, error)) return false;
    } else if (key == "experiment") {
      if (!r.ParseString(out.experiment, error)) return false;
    } else if (key == "run") {
      if (!r.ParseU64(out.run, error)) return false;
    } else if (key == "seed") {
      if (!r.ParseU64(out.seed, error)) return false;
    } else if (key == "runs") {
      if (!r.ParseU64(out.runs, error)) return false;
    } else if (key == "v") {
      uint64_t version = 0;
      if (!r.ParseU64(version, error)) return false;
    } else if (key == "counters") {
      if (!ParseNumberMap<uint64_t>(r, error,
                                    [&](std::string name, uint64_t v) {
            out.snapshot.counters.emplace_back(std::move(name), v);
          })) {
        return false;
      }
    } else if (key == "gauges") {
      if (!ParseNumberMap<double>(r, error, [&](std::string name, double v) {
            out.snapshot.gauges.emplace_back(std::move(name), v);
          })) {
        return false;
      }
    } else if (key == "histograms") {
      if (!ParseHistograms(r, out.snapshot, error)) return false;
    } else if (key == "spans") {
      if (!ParseSpans(r, out.snapshot, error)) return false;
    } else {
      return r.Fail("unknown field '" + key + "'", error);
    }
  } while (r.Consume(','));
  if (!r.Consume('}')) return r.Fail("expected '}'", error);
  if (!r.AtEnd()) return r.Fail("trailing bytes", error);
  if (out.kind.empty()) return r.Fail("record has no kind", error);
  if (out.kind != "run_metrics" && out.kind != "metrics_header") {
    return r.Fail("unknown record kind", error);
  }
  return true;
}

}  // namespace ipda::obs
