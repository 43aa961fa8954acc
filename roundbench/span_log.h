// In-memory span log for the traced run.
//
// The traced run steps each round through public calls and wraps every
// call in a span (name, start, end, parent, round id). Spans stay in
// memory while the run measures and are written out once at the end, so
// the log adds no IO to the rounds it times. A span's self time is its
// duration minus the time its child spans cover.

#ifndef ROUNDBENCH_SPAN_LOG_H_
#define ROUNDBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace roundbench {

namespace util = ipda::util;

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = "";
    double start_ms = 0.0;  // Since the log's epoch.
    double end_ms = 0.0;
    int64_t parent = -1;  // Index of the parent span; -1 for a root.
    uint64_t round = 0;
  };

  // Opens a span under the innermost open span (or as a root) and closes
  // it when the scope ends.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    size_t index_;
  };

  SpanLog();

  // Round id stamped on spans opened from now on.
  void set_round(uint64_t round) { round_ = round; }

  // Self time in ms per round id, then per span name.
  std::map<uint64_t, std::map<std::string, double>> SelfTimes() const;

  // Writes every span as one JSON document.
  util::Status WriteJson(const std::string& path) const;

 private:
  double Now() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t round_ = 0;
};

}  // namespace roundbench

#endif  // ROUNDBENCH_SPAN_LOG_H_
