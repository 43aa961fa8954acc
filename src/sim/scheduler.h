// Event queue for the discrete-event kernel.
//
// Events are closures ordered by (time, insertion sequence); ties at the
// same timestamp run in scheduling order, which makes simulations
// deterministic. Scheduled events can be cancelled through their EventId.
//
// Unqueued events: a component may take sequence numbers from the same
// counter (ReserveSeq) for events it never queues, and apply them itself
// when it next looks at its own state, comparing their keys with
// position(). net::Channel keeps reception records this way. Such a
// component registers as the UnqueuedEvents source, so that RunUntil
// applies everything due by its deadline and leaves the clock where a
// queue holding those events would have left it.
//
// Hot-path layout: a flat 4-ary min-heap of 24-byte POD entries (no
// pointer chasing, sift moves touch one cache line per level) over a slot
// array holding the closures. EventIds are generation-tagged handles
// (slot, generation), so Cancel() is O(1) — bump the generation, free the
// slot — with no tombstone side tables; a stale heap entry is recognized
// at pop time by a single integer compare. Steady-state dispatch performs
// zero heap allocations: slots recycle through a free list, closures live
// inline in the slot (sim/callback.h) or in the scheduler's byte pool.

#ifndef IPDA_SIM_SCHEDULER_H_
#define IPDA_SIM_SCHEDULER_H_

#include <compare>
#include <cstdint>
#include <vector>

#include "sim/callback.h"
#include "sim/cancel.h"
#include "sim/time.h"
#include "util/check.h"
#include "util/pool.h"

namespace ipda::sim {

// (generation << 32) | (slot + 1); 0 never names a live event.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

// An event's place in dispatch order: time, then scheduling sequence.
struct EventKey {
  SimTime at = kSimTimeZero;
  uint64_t seq = 0;
  friend auto operator<=>(const EventKey&, const EventKey&) = default;
};

// See "Unqueued events" above.
class UnqueuedEvents {
 public:
  // Applies every event of this source at or before `deadline` and
  // returns the greatest key among them (EventKey{} when there is none).
  virtual EventKey ApplyUntil(SimTime deadline) = 0;

 protected:
  ~UnqueuedEvents() = default;
};

class Scheduler {
 public:
  Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Schedules `fn` at absolute time `at` (must be >= now). Returns a handle
  // usable with Cancel().
  template <typename F>
  EventId ScheduleAt(SimTime at, F&& fn) {
    // Null-testable callables (std::function, function pointers) must not
    // be empty; plain lambdas skip the check at compile time.
    if constexpr (requires { static_cast<bool>(fn); }) {
      IPDA_CHECK(static_cast<bool>(fn));
    }
    return PushEvent(at, Callback(&overflow_, std::forward<F>(fn)));
  }

  // Schedules `fn` after a non-negative delay from now.
  template <typename F>
  EventId ScheduleAfter(SimTime delay, F&& fn) {
    IPDA_CHECK_GE(delay, 0);
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending event; returns false if it already ran, was already
  // cancelled, or never existed. O(1): the handle's generation goes stale
  // and its closure is destroyed immediately.
  bool Cancel(EventId id);

  // Runs the earliest pending event, advancing the clock. Returns false if
  // the queue is empty.
  bool RunOne();

  // Runs events until the queue is empty or the clock would pass `deadline`
  // (events at exactly `deadline` run), then applies the unqueued events
  // due by `deadline`; the clock stops at the latest event run or applied.
  // Returns the number of queued events run. The deadline check and the
  // stale-entry skip share one peek of the heap top — there is no
  // separate skip pass. An interrupted run applies nothing unqueued.
  size_t RunUntil(SimTime deadline);

  // Runs everything. Returns the number of events run.
  size_t RunAll();

  // Cooperative interruption (the watchdog hook): when a cancel token is
  // armed or the event budget is exhausted, RunOne/RunUntil/RunAll stop
  // between events and interrupt_cause() says why. A hung run — an
  // adversarial configuration spinning in a same-timestamp reschedule
  // loop — is thereby convertible into a recordable failure instead of a
  // stalled worker. Both guards cost one compare per dispatch when unset.
  enum class InterruptCause : uint8_t { kNone = 0, kCancel, kEventBudget };

  // `token` may be null (no cancellation); otherwise it must outlive
  // every Run* call. Polled with a relaxed load, so another thread's
  // RequestCancel is picked up within one event.
  void SetCancelToken(const CancelToken* token) { cancel_ = token; }
  // Caps lifetime events_run(); 0 = unlimited.
  void SetEventBudget(uint64_t budget) { event_budget_ = budget; }
  // Why the most recent Run* call stopped early (kNone: it did not).
  InterruptCause interrupt_cause() const { return interrupt_cause_; }
  bool interrupted() const {
    return interrupt_cause_ != InterruptCause::kNone;
  }

  SimTime now() const { return now_; }
  // Key of the running event; between runs, of the last event dispatched
  // or applied. An unqueued event has happened iff its key is smaller.
  EventKey position() const { return {now_, position_seq_}; }
  // Takes the sequence number the next ScheduleAt would have used, for an
  // unqueued event ordered among the queue's.
  uint64_t ReserveSeq() { return next_seq_++; }
  // The sequence number the next ScheduleAt or ReserveSeq will use.
  uint64_t next_seq() const { return next_seq_; }
  // Sets the source whose events RunUntil applies once every queued event
  // due by the deadline has run; nullptr clears it. There is at most one
  // (a simulation has one radio medium). Non-owning: the source must clear
  // itself before it is destroyed.
  void SetUnqueuedEvents(UnqueuedEvents* source);
  bool empty() const { return live_ == 0; }
  size_t pending() const { return live_; }
  // Stale heap entries left by Cancel(). Bounded: head entries purge as
  // the clock reaches them, and Cancel() prunes the heap in one linear
  // lookup-free pass once stale entries are both >= kPruneThreshold and
  // at least half the heap.
  size_t cancelled_pending() const { return heap_.size() - live_; }
  uint64_t events_run() const { return events_run_; }
  // Stale (cancelled) heap entries recognized and dropped at pop time.
  uint64_t stale_skips() const { return stale_skips_; }
  // Linear PruneStale() passes triggered by cancel-heavy churn.
  uint64_t prune_passes() const { return prune_passes_; }

 private:
  // Publishes the heap/slot/overflow capacities (the zero-alloc referee)
  // into the run's metrics registry (DESIGN.md §11).
  friend class Simulator;

  // POD heap entry; ordering compares (at, seq) only, so the flat layout
  // cannot perturb determinism relative to the old pointer heap.
  struct HeapEntry {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  struct Slot {
    Callback fn;
    uint32_t gen = 0;
    uint32_t next_free = kNoSlot;
    bool live = false;
  };

  // Cancel() prunes once this many stale entries accumulate AND they make
  // up at least half the heap (so pruning stays amortized O(1) per event).
  static constexpr size_t kPruneThreshold = 64;

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  bool EntryLive(const HeapEntry& e) const {
    const Slot& s = slots_[e.slot];
    return s.live && s.gen == e.gen;
  }

  EventId PushEvent(SimTime at, Callback cb);
  void FreeSlot(uint32_t slot);

  // Sets interrupt_cause_ and returns true when a guard tripped.
  bool CheckInterrupt();

  // Removes heap_[0] and restores the heap property.
  void PopTop();
  // Pops stale entries until the top is live (or the heap is empty).
  void DropStaleHead();
  // Pops and runs the (live) top entry, advancing the clock.
  void DispatchTop();
  // Rebuilds the heap without stale entries, in one linear pass.
  void PruneStale();

  void SiftUp(size_t i);
  void SiftDown(size_t i);

  SimTime now_ = kSimTimeZero;
  uint64_t position_seq_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  uint64_t stale_skips_ = 0;
  uint64_t prune_passes_ = 0;
  const CancelToken* cancel_ = nullptr;
  uint64_t event_budget_ = 0;  // 0 = unlimited.
  InterruptCause interrupt_cause_ = InterruptCause::kNone;
  size_t live_ = 0;
  // Declared before slots_: slot teardown returns oversized closures here.
  util::BytePool overflow_;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  UnqueuedEvents* unqueued_ = nullptr;
};

}  // namespace ipda::sim

#endif  // IPDA_SIM_SCHEDULER_H_
