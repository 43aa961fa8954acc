#include "span_log.h"

#include <cstdio>

namespace roundbench {

SpanLog::Scope::Scope(SpanLog& log, const char* name)
    : log_(log), index_(log.spans_.size()) {
  Span span;
  span.name = name;
  span.parent = log.open_.empty() ? -1 : static_cast<int64_t>(log.open_.back());
  span.round = log.round_;
  span.start_ms = log.Now();
  log.spans_.push_back(span);
  log.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  log_.spans_[index_].end_ms = log_.Now();
  log_.open_.pop_back();
}

SpanLog::SpanLog() : epoch_(Clock::now()) { spans_.reserve(1 << 14); }

double SpanLog::Now() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
      .count();
}

std::map<uint64_t, std::map<std::string, double>> SpanLog::SelfTimes()
    const {
  // Children of one span run one after another on one thread, so the
  // time they cover is the sum of their durations.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] += span.end_ms - span.start_ms;
    }
  }
  std::map<uint64_t, std::map<std::string, double>> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.round][span.name] += span.end_ms - span.start_ms - child_ms[i];
  }
  return self;
}

util::Status SpanLog::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return util::UnavailableError("cannot write span log " + path);
  }
  std::fprintf(out, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f, \"parent\": %lld, \"round\": %llu}%s\n",
                 i, s.name, s.start_ms, s.end_ms,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.round),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) {
    return util::UnavailableError("short write to span log " + path);
  }
  return util::OkStatus();
}

}  // namespace roundbench
