// Event queue for the discrete-event kernel.
//
// Events are closures ordered by (time, insertion sequence); ties at the
// same timestamp run in scheduling order, which makes simulations
// deterministic. Scheduled events can be cancelled through their EventId.
//
// Three ordered queues, none of them deep (DESIGN.md §9). Each dispatch
// runs the smallest key among:
//   - the near heap: events due within kFarHorizon of when they were
//     scheduled (MAC backoff, ACK timeouts, SIFS, airtime, HELLO jitter);
//   - the far heap: events due later (protocol phase timers, deadlines),
//     which would otherwise sit under every short timer's sift;
//   - the UnqueuedEvents source: events a component keeps in its own
//     ordered lists (net::Channel's reception ends). It hands out its
//     smallest key (NextKey) and runs that event when asked (RunNext).
// Source events take sequence numbers from the same counter (ReserveSeq),
// count in events_run() and the dispatch digest, and stop at the same
// cancel token and event budget as queued events. The source may also
// keep events that run no code; RunUntil lets it apply those due by the
// deadline (ApplyUntil) and leaves the clock where a queue holding them
// would have left it. pending() and empty() count queued events only.
//
// Hot-path layout: flat 4-ary min-heaps of 24-byte POD entries (no
// pointer chasing, sift moves touch one cache line per level) over one
// slot array holding the closures. EventIds are generation-tagged handles
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

// Greater than every key a scheduler hands out: "no event".
constexpr EventKey kNoEventKey{kSimTimeNever, UINT64_MAX};

// Events a component orders and runs itself; see the header comment.
class UnqueuedEvents {
 public:
  // The smallest key among this source's runnable events, or kNoEventKey.
  virtual EventKey NextKey() = 0;
  // Runs the event NextKey() just returned. The scheduler has already set
  // position() to its key; nothing has changed the source in between.
  virtual void RunNext() = 0;
  // Applies every event of this source that runs no code and is due at
  // or before `deadline`, and returns the greatest key among them
  // (EventKey{} when there is none).
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

  // Runs the earliest pending event, queued or from the source, advancing
  // the clock. Returns false if there is none.
  bool RunOne();

  // Runs events until none is left or the clock would pass `deadline`
  // (events at exactly `deadline` run), then applies the source's events
  // that run no code due by `deadline`; the clock stops at the latest
  // event run or applied. Returns the number of events run. The deadline
  // check and the stale-entry skip share one peek of the queue heads —
  // there is no separate skip pass. An interrupted run applies nothing.
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
  // Sets the source whose events dispatch alongside the queued ones;
  // nullptr clears it. There is at most one (a simulation has one radio
  // medium). Non-owning: the source must clear itself before it is
  // destroyed.
  void SetUnqueuedEvents(UnqueuedEvents* source);
  // Queued events only: the source's events are not counted.
  bool empty() const { return live_ == 0; }
  size_t pending() const { return live_; }
  // Stale entries left by Cancel() in either heap. Bounded: head entries
  // purge as the clock reaches them, and Cancel() prunes both heaps in one
  // linear lookup-free pass once stale entries are both >= kPruneThreshold
  // and at least half of all heap entries.
  size_t cancelled_pending() const {
    return near_.size() + far_.size() - live_;
  }
  uint64_t events_run() const { return events_run_; }
  // Stale (cancelled) heap entries recognized and dropped at pop time.
  uint64_t stale_skips() const { return stale_skips_; }
  // Linear PruneStale() passes triggered by cancel-heavy churn.
  uint64_t prune_passes() const { return prune_passes_; }
  // Running digest of the (at, seq) keys of every event run, in dispatch
  // order: two runs that dispatched the same events in the same order
  // read the same value.
  uint64_t dispatch_digest() const { return digest_; }

 private:
  // Publishes the near/far heap, slot and overflow capacities (the
  // zero-alloc referee) into the run's metrics registry (DESIGN.md §11).
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

  // An event due at least this long after it is scheduled goes to the far
  // heap. Dispatch always takes the smallest (at, seq) over both heaps and
  // the source, so the order of events does not depend on this constant;
  // only how the entries split between the heaps, and so the heaps'
  // capacities, does. 50 ms clears the longest MAC-level delay (HELLO
  // jitter, <= 40 ms) and sits far below the protocol's phase timers.
  static constexpr SimTime kFarHorizon = Milliseconds(50);

  using Heap = std::vector<HeapEntry>;
  // Which queue holds the next event.
  enum class Queue : uint8_t { kNone, kNear, kFar, kSource };

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

  // Finds the queue holding the smallest pending key and stores the key
  // in `key`. Stale heap heads met on the way, i.e. ahead of every live
  // event, are popped and counted, as one merged heap would meet them.
  Queue Earliest(EventKey& key);
  // Runs the event at the head of `queue`, whose key is `key`.
  void Dispatch(Queue queue, EventKey key);
  // Rebuilds both heaps without stale entries, in one linear pass each.
  void PruneStale();

  static void PopTop(Heap& heap);
  static void SiftUp(Heap& heap, size_t i);
  static void SiftDown(Heap& heap, size_t i);
  void PruneHeap(Heap& heap);

  SimTime now_ = kSimTimeZero;
  uint64_t position_seq_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_run_ = 0;
  uint64_t stale_skips_ = 0;
  uint64_t prune_passes_ = 0;
  uint64_t digest_ = 0;
  const CancelToken* cancel_ = nullptr;
  uint64_t event_budget_ = 0;  // 0 = unlimited.
  InterruptCause interrupt_cause_ = InterruptCause::kNone;
  size_t live_ = 0;
  // Declared before slots_: slot teardown returns oversized closures here.
  util::BytePool overflow_;
  Heap near_;
  Heap far_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  UnqueuedEvents* unqueued_ = nullptr;
};

}  // namespace ipda::sim

#endif  // IPDA_SIM_SCHEDULER_H_
