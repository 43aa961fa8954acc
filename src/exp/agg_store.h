// Bounded-memory partial-aggregate buffer with sorted spill runs.
//
// The out-of-core half of the PAO pipeline (DESIGN.md §16): producers
// append (key, seq, value) observations — key names a (metric,
// sweep-cell) pair, seq is the flat run index — into a flat in-memory
// buffer. When the buffer would exceed the byte budget it is sorted by
// the canonical total order (key string, seq, value) and written to a
// binary run file; the reduce pass k-way-merges every spilled run plus
// the in-memory residue back into that same order and hands values to
// the caller one at a time.
//
// Determinism argument: the emitted sequence is the sorted multiset of
// everything Added. Thread interleaving, spill timing, and the budget
// only decide *where* a tuple waits, never where it sorts — so a report
// folded from ForEachSorted is byte-identical for any --jobs or
// --agg-memory-budget setting. Aggregators that are order-sensitive
// in the last ulp (Welford means) therefore reproduce exactly, which no
// amount of PAO Merge() care could guarantee on its own.
//
// Memory model: RSS is O(budget + #keys + #spill-run read buffers); an
// unlimited budget (0) buffers everything and never touches disk, and
// is byte-identical to any bounded run by the argument above.

#ifndef IPDA_EXP_AGG_STORE_H_
#define IPDA_EXP_AGG_STORE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace ipda::exp {

struct AggStoreOptions {
  // Byte budget for the in-memory tuple buffer; 0 = unlimited (never
  // spills). The intern table and per-run read buffers are extra — see
  // the memory model above.
  uint64_t memory_budget_bytes = 0;
  // Directory for spill runs. Empty = a private mkdtemp'd directory,
  // owned and removed by the store; a caller-provided directory must
  // exist and only the run files created here are cleaned up.
  std::string spill_dir;
};

class PartialAggStore {
 public:
  explicit PartialAggStore(AggStoreOptions options);
  ~PartialAggStore();

  PartialAggStore(const PartialAggStore&) = delete;
  PartialAggStore& operator=(const PartialAggStore&) = delete;

  // Interns a key (idempotent) and returns its dense id. Thread-safe.
  uint32_t Key(std::string_view key);

  // Appends one observation. Thread-safe; may spill inline. Only IO
  // failures (spill write) surface as errors.
  util::Status Add(uint32_t key, uint64_t seq, double value);
  util::Status Add(std::string_view key, uint64_t seq, double value) {
    return Add(Key(key), seq, value);
  }

  // Streams every observation in canonical (key, seq, value) order.
  // Single-shot and not concurrent with Add: call once, after the
  // producing phase. Consumes spilled runs and the buffer.
  util::Status ForEachSorted(
      const std::function<void(std::string_view key, uint64_t seq,
                               double value)>& fn);

  struct Stats {
    size_t keys = 0;
    uint64_t entries = 0;          // Total observations Added.
    size_t spill_runs = 0;         // Run files written.
    uint64_t spilled_entries = 0;  // Observations that hit disk.
    uint64_t peak_buffer_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    uint32_t key = 0;
    uint64_t seq = 0;
    double value = 0.0;
  };

  // Canonical total order; compares interned key *strings* so ids
  // (assigned in nondeterministic arrival order) never leak into it.
  bool EntryLess(const Entry& a, const Entry& b) const;

  util::Status SpillLocked();
  util::Status EnsureSpillDirLocked();
  // Collapses the oldest `fan_in` spill runs into one (keeps the open-
  // file count and per-emission compare cost bounded at tiny budgets).
  util::Status CollapseRunsLocked(size_t fan_in);

  const AggStoreOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, uint32_t, std::less<>> intern_;
  std::vector<const std::string*> names_;  // Dense id -> key (map-stable).
  std::vector<Entry> buffer_;
  std::vector<std::string> spill_paths_;
  size_t next_run_id_ = 0;
  std::string owned_dir_;  // Non-empty when the store mkdtemp'd it.
  std::string spill_dir_;  // Resolved target ("" until first spill).
  Stats stats_;
  bool consumed_ = false;
};

}  // namespace ipda::exp

#endif  // IPDA_EXP_AGG_STORE_H_
