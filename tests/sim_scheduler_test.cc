#include "sim/scheduler.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/random.h"

namespace ipda::sim {
namespace {

TEST(Time, ConversionHelpers) {
  EXPECT_EQ(Microseconds(1), Nanoseconds(1000));
  EXPECT_EQ(Milliseconds(1), Microseconds(1000));
  EXPECT_EQ(Seconds(1), Milliseconds(1000));
  EXPECT_EQ(SecondsF(0.5), Milliseconds(500));
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(Milliseconds(30), [&] { order.push_back(3); });
  sched.ScheduleAt(Milliseconds(10), [&] { order.push_back(1); });
  sched.ScheduleAt(Milliseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(sched.RunAll(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), Milliseconds(30));
}

TEST(Scheduler, TiesRunInSchedulingOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sched.ScheduleAt(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sched.RunAll();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler sched;
  SimTime fired_at = -1;
  sched.ScheduleAt(Milliseconds(10), [&] {
    sched.ScheduleAfter(Milliseconds(5), [&] { fired_at = sched.now(); });
  });
  sched.RunAll();
  EXPECT_EQ(fired_at, Milliseconds(15));
}

TEST(Scheduler, RunUntilStopsAtDeadlineInclusive) {
  Scheduler sched;
  int count = 0;
  sched.ScheduleAt(Milliseconds(10), [&] { ++count; });
  sched.ScheduleAt(Milliseconds(20), [&] { ++count; });
  sched.ScheduleAt(Milliseconds(30), [&] { ++count; });
  EXPECT_EQ(sched.RunUntil(Milliseconds(20)), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_EQ(sched.RunAll(), 1u);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool ran = false;
  EventId id = sched.ScheduleAt(Milliseconds(10), [&] { ran = true; });
  EXPECT_TRUE(sched.Cancel(id));
  sched.RunAll();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelTwiceFails) {
  Scheduler sched;
  EventId id = sched.ScheduleAt(Milliseconds(10), [] {});
  EXPECT_TRUE(sched.Cancel(id));
  EXPECT_FALSE(sched.Cancel(id));
}

TEST(Scheduler, CancelAfterRunFails) {
  Scheduler sched;
  EventId id = sched.ScheduleAt(Milliseconds(1), [] {});
  sched.RunAll();
  EXPECT_FALSE(sched.Cancel(id));
}

TEST(Scheduler, CancelUnknownIdFails) {
  Scheduler sched;
  EXPECT_FALSE(sched.Cancel(kInvalidEventId));
  EXPECT_FALSE(sched.Cancel(9999));
}

TEST(Scheduler, PendingCountExcludesCancelled) {
  Scheduler sched;
  EventId a = sched.ScheduleAt(Milliseconds(1), [] {});
  sched.ScheduleAt(Milliseconds(2), [] {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.Cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_FALSE(sched.empty());
  sched.RunAll();
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.cancelled_pending(), 0u);  // Tombstone purged at pop.
}

TEST(Scheduler, CancelledTombstonesStayBounded) {
  // A workload that cancels nearly everything it schedules (ARQ ack
  // timers) must not accumulate tombstones without bound: compaction
  // keeps them under the threshold even though the clock never reaches
  // the cancelled timestamps.
  Scheduler sched;
  for (int i = 0; i < 10000; ++i) {
    EventId id = sched.ScheduleAt(Milliseconds(1000 + i), [] {});
    sched.Cancel(id);
    EXPECT_LE(sched.cancelled_pending(), 64u);
  }
  EXPECT_TRUE(sched.empty());
  sched.RunAll();
  EXPECT_EQ(sched.cancelled_pending(), 0u);
  EXPECT_EQ(sched.events_run(), 0u);
}

TEST(Scheduler, CompactionPreservesLiveEventsAndOrder) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventId> doomed;
  int cancelled_ran = 0;
  // Interleave survivors (some at a shared timestamp, to exercise seq
  // tie-breaking across a rebuild) with events that will be cancelled.
  for (int i = 0; i < 200; ++i) {
    const SimTime at = i < 100 ? Milliseconds(10 + i) : Milliseconds(500);
    sched.ScheduleAt(at, [&order, i] { order.push_back(i); });
    doomed.push_back(
        sched.ScheduleAt(Milliseconds(900 + i), [&] { ++cancelled_ran; }));
  }
  for (EventId id : doomed) sched.Cancel(id);  // Forces compaction.
  EXPECT_EQ(sched.cancelled_pending(), 0u);
  EXPECT_EQ(sched.pending(), 200u);
  sched.RunAll();
  EXPECT_EQ(cancelled_ran, 0);
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sched.cancelled_pending(), 0u);
}

TEST(Scheduler, CancelStaysCorrectAcrossCompaction) {
  // Ids cancelled before a compaction stay cancelled; ids still pending
  // afterwards can still be cancelled.
  Scheduler sched;
  std::vector<EventId> keep;
  int ran = 0;
  for (int i = 0; i < 300; ++i) {
    EventId id = sched.ScheduleAt(Milliseconds(10 + i), [&] { ++ran; });
    if (i % 2 == 0) {
      sched.Cancel(id);
    } else {
      keep.push_back(id);
    }
  }
  for (size_t i = 0; i < keep.size(); i += 2) {
    EXPECT_TRUE(sched.Cancel(keep[i]));
  }
  sched.RunAll();
  EXPECT_EQ(ran, 75);  // 300 - 150 - 75.
  EXPECT_EQ(sched.cancelled_pending(), 0u);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sched.ScheduleAfter(Milliseconds(1), recurse);
  };
  sched.ScheduleAt(Milliseconds(1), recurse);
  sched.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sched.now(), Milliseconds(5));
}

TEST(Scheduler, RunOneReturnsFalseWhenEmpty) {
  Scheduler sched;
  EXPECT_FALSE(sched.RunOne());
  sched.ScheduleAt(Milliseconds(1), [] {});
  EXPECT_TRUE(sched.RunOne());
  EXPECT_FALSE(sched.RunOne());
}

TEST(Scheduler, EventsRunCounter) {
  Scheduler sched;
  for (int i = 0; i < 10; ++i) sched.ScheduleAt(Milliseconds(i + 1), [] {});
  sched.RunAll();
  EXPECT_EQ(sched.events_run(), 10u);
}

TEST(Scheduler, SchedulingInThePastAborts) {
  Scheduler sched;
  sched.ScheduleAt(Milliseconds(10), [] {});
  sched.RunAll();
  EXPECT_DEATH(sched.ScheduleAt(Milliseconds(5), [] {}), "CHECK failed");
}

TEST(Scheduler, CancelledHeadDoesNotBlockRunUntil) {
  Scheduler sched;
  bool second_ran = false;
  EventId head = sched.ScheduleAt(Milliseconds(1), [] {});
  sched.ScheduleAt(Milliseconds(2), [&] { second_ran = true; });
  sched.Cancel(head);
  EXPECT_EQ(sched.RunUntil(Milliseconds(5)), 1u);
  EXPECT_TRUE(second_ran);
}

TEST(Scheduler, StaleHandleAfterSlotReuseFails) {
  // Cancelling frees the slot; the next schedule reuses it under a bumped
  // generation. The stale handle must stay dead and must not be able to
  // cancel the new occupant.
  Scheduler sched;
  bool ran = false;
  EventId old_id = sched.ScheduleAt(Milliseconds(10), [] {});
  EXPECT_TRUE(sched.Cancel(old_id));
  EventId new_id = sched.ScheduleAt(Milliseconds(20), [&] { ran = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(sched.Cancel(old_id));  // Stale generation.
  sched.RunAll();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, SlotReuseSurvivesManyGenerations) {
  // Hammer a single slot through schedule/cancel cycles: every retired
  // handle stays invalid, every live one works exactly once.
  Scheduler sched;
  EventId prev = kInvalidEventId;
  for (int i = 0; i < 1000; ++i) {
    EventId id = sched.ScheduleAt(Milliseconds(10), [] {});
    EXPECT_NE(id, prev);
    EXPECT_FALSE(sched.Cancel(prev));
    EXPECT_TRUE(sched.Cancel(id));
    prev = id;
  }
  EXPECT_TRUE(sched.empty());
}

TEST(Scheduler, CancelHeavyRandomChurn) {
  // Randomized interleaving of schedule / cancel / run, the ARQ-timer
  // shape that motivated generation-tagged handles. Every event either
  // fires exactly once or is cancelled exactly once; double-cancels on
  // stale handles always fail.
  Scheduler sched;
  util::Rng rng(20240805);
  std::vector<EventId> live;
  int fired = 0;
  int scheduled = 0;
  int cancelled = 0;
  while (scheduled < 5000) {
    const uint64_t roll = rng.UniformUint64(100);
    if (roll < 60 || live.empty()) {
      live.push_back(sched.ScheduleAfter(
          Milliseconds(1 + static_cast<SimTime>(rng.UniformUint64(50))),
          [&fired] { ++fired; }));
      ++scheduled;
    } else if (roll < 90) {
      const size_t pick =
          static_cast<size_t>(rng.UniformUint64(live.size()));
      const EventId id = live[pick];
      if (sched.Cancel(id)) {
        ++cancelled;
        EXPECT_FALSE(sched.Cancel(id));  // Stale handle stays dead.
      }
      live.erase(live.begin() + pick);
    } else {
      sched.RunUntil(sched.now() + Milliseconds(5));
    }
  }
  sched.RunAll();
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(fired, scheduled - cancelled);
  EXPECT_EQ(sched.cancelled_pending(), 0u);
}

// The scheduler's allocation footprint as the metrics registry reports
// it (DESIGN.md §11).
struct AllocFootprint {
  double heap_capacity;
  double slot_capacity;
  double overflow_slabs;
  bool operator==(const AllocFootprint&) const = default;
};

AllocFootprint CollectFootprint(Simulator& simulator) {
  simulator.CollectKernelMetrics();
  const obs::Snapshot snapshot = obs::TakeSnapshot(simulator.metrics());
  return AllocFootprint{snapshot.GaugeOr("sim.sched_heap_capacity", -1),
                        snapshot.GaugeOr("sim.sched_slot_capacity", -1),
                        snapshot.GaugeOr("sim.sched_overflow_slabs", -1)};
}

TEST(Scheduler, SteadyStateDispatchDoesNotAllocate) {
  // After warm-up, a schedule/dispatch cycle must reuse the heap array,
  // the slot free list, and the callback pool: no capacity growth and no
  // pool slabs.
  Simulator simulator(/*seed=*/3);
  Scheduler& sched = simulator.scheduler();
  int hits = 0;
  for (int i = 0; i < 256; ++i) {
    sched.ScheduleAfter(Milliseconds(1 + i % 7), [&hits] { ++hits; });
  }
  sched.RunAll();
  const AllocFootprint before = CollectFootprint(simulator);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 256; ++i) {
      sched.ScheduleAfter(Milliseconds(1 + i % 7), [&hits] { ++hits; });
    }
    sched.RunAll();
  }
  const AllocFootprint after = CollectFootprint(simulator);
  EXPECT_GT(before.heap_capacity, 0.0);
  EXPECT_EQ(after.heap_capacity, before.heap_capacity);
  EXPECT_EQ(after.slot_capacity, before.slot_capacity);
  EXPECT_EQ(after.overflow_slabs, before.overflow_slabs);
  EXPECT_EQ(hits, 256 * 101);
}

TEST(Scheduler, RegistryMirrorsAllocStatsShim) {
  // The metrics registry is the surface for the zero-alloc referee
  // (DESIGN.md §11): it must mirror the scheduler's own counters, and
  // collection must be idempotent.
  Simulator simulator(/*seed=*/7);
  Scheduler& sched = simulator.scheduler();
  std::vector<EventId> live;
  for (int i = 0; i < 512; ++i) {
    live.push_back(sched.ScheduleAfter(Milliseconds(1 + i % 13), [] {}));
  }
  for (size_t i = 0; i < live.size(); i += 2) {
    sched.Cancel(live[i]);  // Half go stale: exercises skip/prune paths.
  }
  sched.RunAll();

  const AllocFootprint first = CollectFootprint(simulator);
  const AllocFootprint second = CollectFootprint(simulator);
  EXPECT_EQ(first, second);  // Idempotent: Set, not Add.
  const obs::Snapshot snapshot = obs::TakeSnapshot(simulator.metrics());
  EXPECT_EQ(snapshot.CounterOr("sim.sched_stale_skips", -1),
            static_cast<double>(sched.stale_skips()));
  EXPECT_EQ(snapshot.CounterOr("sim.sched_prunes", -1),
            static_cast<double>(sched.prune_passes()));
  EXPECT_GT(snapshot.CounterOr("sim.sched_stale_skips", 0) +
                snapshot.CounterOr("sim.sched_prunes", 0),
            0.0);  // The cancellations above must actually register.
}

TEST(Scheduler, EventBudgetStopsInfiniteReschedule) {
  // The deliberately-hung fixture: an event that always reschedules
  // itself. Without a budget RunUntil would spin forever; the budget
  // converts the hang into a clean interrupted return.
  Scheduler sched;
  sched.SetEventBudget(100);
  uint64_t fired = 0;
  std::function<void()> forever = [&] {
    ++fired;
    sched.ScheduleAfter(Milliseconds(1), forever);
  };
  sched.ScheduleAt(Milliseconds(1), forever);
  sched.RunUntil(Seconds(1000000));
  EXPECT_EQ(fired, 100u);
  EXPECT_TRUE(sched.interrupted());
  EXPECT_EQ(sched.interrupt_cause(), Scheduler::InterruptCause::kEventBudget);
}

TEST(Scheduler, EventBudgetCapsLifetimeEvents) {
  // The budget caps events_run() across calls, not per call: a second
  // RunUntil after an exhausted budget runs nothing.
  Scheduler sched;
  sched.SetEventBudget(5);
  int ran = 0;
  for (int i = 0; i < 10; ++i) {
    sched.ScheduleAt(Milliseconds(i + 1), [&] { ++ran; });
  }
  sched.RunUntil(Milliseconds(100));
  EXPECT_EQ(ran, 5);
  sched.RunUntil(Milliseconds(200));
  EXPECT_EQ(ran, 5);
  EXPECT_EQ(sched.interrupt_cause(), Scheduler::InterruptCause::kEventBudget);
}

TEST(Scheduler, CancelTokenStopsRunMidFlight) {
  Scheduler sched;
  CancelToken token;
  sched.SetCancelToken(&token);
  int ran = 0;
  for (int i = 0; i < 10; ++i) {
    sched.ScheduleAt(Milliseconds(i + 1), [&] {
      ++ran;
      if (ran == 3) token.RequestCancel(CancelReason::kDeadline);
    });
  }
  sched.RunUntil(Milliseconds(100));
  EXPECT_EQ(ran, 3);
  EXPECT_TRUE(sched.interrupted());
  EXPECT_EQ(sched.interrupt_cause(), Scheduler::InterruptCause::kCancel);
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_EQ(sched.pending(), 7u);
}

TEST(Scheduler, InterruptCauseResetsOnNextRun) {
  Scheduler sched;
  CancelToken token;
  sched.SetCancelToken(&token);
  token.RequestCancel();
  sched.ScheduleAt(Milliseconds(1), [] {});
  sched.RunUntil(Milliseconds(10));
  EXPECT_TRUE(sched.interrupted());
  token.Reset();
  sched.RunUntil(Milliseconds(10));
  EXPECT_FALSE(sched.interrupted());
  EXPECT_EQ(sched.interrupt_cause(), Scheduler::InterruptCause::kNone);
  EXPECT_EQ(sched.pending(), 0u);
}

// An UnqueuedEvents source in its simplest form: events sorted by key,
// each taking its sequence number from the scheduler when added.
class FakeSource final : public UnqueuedEvents {
 public:
  explicit FakeSource(Scheduler* sched) : sched_(sched) {
    sched_->SetUnqueuedEvents(this);
  }
  ~FakeSource() { sched_->SetUnqueuedEvents(nullptr); }

  void Add(SimTime at, std::function<void()> fn) {
    events_.push_back({EventKey{at, sched_->ReserveSeq()}, std::move(fn)});
    std::sort(events_.begin(), events_.end(),
              [](const Event& a, const Event& b) { return a.key < b.key; });
  }
  size_t size() const { return events_.size(); }

  EventKey NextKey() override {
    return events_.empty() ? kNoEventKey : events_.front().key;
  }
  void RunNext() override {
    const Event event = events_.front();
    events_.erase(events_.begin());
    EXPECT_EQ(sched_->position(), event.key);
    event.fn();
  }
  EventKey ApplyUntil(SimTime) override { return {}; }

 private:
  struct Event {
    EventKey key;
    std::function<void()> fn;
  };
  Scheduler* sched_;
  std::vector<Event> events_;
};

TEST(SchedulerSource, EqualTimesRunInSequenceOrder) {
  Scheduler sched;
  FakeSource source(&sched);
  std::vector<int> order;
  const auto note = [&order](int i) {
    return [&order, i] { order.push_back(i); };
  };
  sched.ScheduleAt(Milliseconds(5), note(0));
  source.Add(Milliseconds(5), note(1));
  source.Add(Milliseconds(5), note(2));
  sched.ScheduleAt(Milliseconds(5), note(3));
  source.Add(Milliseconds(5), note(4));
  sched.ScheduleAt(Milliseconds(4), note(-1));
  source.Add(Milliseconds(6), note(5));
  EXPECT_EQ(sched.RunAll(), 7u);  // Source events count as run.
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sched.events_run(), 7u);
  EXPECT_EQ(sched.now(), Milliseconds(6));
}

TEST(SchedulerSource, RunUntilDeadlineAtASourceKey) {
  Scheduler sched;
  FakeSource source(&sched);
  int ran = 0;
  source.Add(Milliseconds(10), [&ran] { ++ran; });
  EXPECT_EQ(sched.RunUntil(Milliseconds(10) - 1), 0u);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(source.size(), 1u);
  EXPECT_EQ(sched.RunUntil(Milliseconds(10)), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched.position(), (EventKey{Milliseconds(10), 0}));
}

TEST(SchedulerSource, RunOneWithOnlyTheSourcePending) {
  Scheduler sched;
  FakeSource source(&sched);
  bool ran = false;
  source.Add(Milliseconds(3), [&ran] { ran = true; });
  EXPECT_TRUE(sched.empty());  // pending() counts queued events only.
  EXPECT_TRUE(sched.RunOne());
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.now(), Milliseconds(3));
  EXPECT_FALSE(sched.RunOne());
}

TEST(SchedulerSource, EventBudgetTripsBetweenSourceAndQueuedEvents) {
  Scheduler sched;
  FakeSource source(&sched);
  std::vector<int> order;
  source.Add(Milliseconds(1), [&order] { order.push_back(1); });
  sched.ScheduleAt(Milliseconds(2), [&order] { order.push_back(2); });
  source.Add(Milliseconds(3), [&order] { order.push_back(3); });
  sched.SetEventBudget(1);
  sched.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sched.interrupt_cause(), Scheduler::InterruptCause::kEventBudget);
  sched.SetEventBudget(2);
  sched.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sched.interrupt_cause(), Scheduler::InterruptCause::kEventBudget);
  EXPECT_EQ(source.size(), 1u);
  EXPECT_EQ(sched.events_run(), 2u);
}

TEST(SchedulerSource, CancelTokenTripsBetweenQueuedAndSourceEvents) {
  Scheduler sched;
  FakeSource source(&sched);
  CancelToken token;
  sched.SetCancelToken(&token);
  std::vector<int> order;
  sched.ScheduleAt(Milliseconds(1), [&] {
    order.push_back(1);
    token.RequestCancel(CancelReason::kDeadline);
  });
  source.Add(Milliseconds(2), [&order] { order.push_back(2); });
  sched.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sched.interrupt_cause(), Scheduler::InterruptCause::kCancel);
  EXPECT_EQ(source.size(), 1u);
  token.Reset();
  sched.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerSource, StaleEntriesBehindASourceEventWait) {
  // A cancelled entry is dropped (and counted in stale_skips) only once
  // it is the earliest pending key, as in one merged queue: which queue
  // holds an event must not change sim.sched_stale_skips.
  Scheduler sched;
  FakeSource source(&sched);
  source.Add(Milliseconds(1), [] {});
  sched.Cancel(sched.ScheduleAt(Milliseconds(2), [] {}));
  sched.ScheduleAt(Milliseconds(3), [] {});
  EXPECT_TRUE(sched.RunOne());
  EXPECT_EQ(sched.stale_skips(), 0u);
  EXPECT_EQ(sched.cancelled_pending(), 1u);
  EXPECT_TRUE(sched.RunOne());
  EXPECT_EQ(sched.stale_skips(), 1u);
  EXPECT_EQ(sched.now(), Milliseconds(3));
}

TEST(SchedulerSource, DispatchDigestDependsOnKeysAndOrderOnly) {
  // The same keys dispatch to the same digest whether they were queued or
  // came from the source; one swapped pair changes it.
  Scheduler queued;
  for (int i = 0; i < 4; ++i) queued.ScheduleAt(Milliseconds(i), [] {});
  queued.RunAll();
  Scheduler mixed;
  FakeSource source(&mixed);
  for (int i = 0; i < 4; ++i) {
    if (i % 2 == 0) {
      source.Add(Milliseconds(i), [] {});
    } else {
      mixed.ScheduleAt(Milliseconds(i), [] {});
    }
  }
  mixed.RunAll();
  EXPECT_EQ(mixed.dispatch_digest(), queued.dispatch_digest());
  Scheduler swapped;
  swapped.ScheduleAt(Milliseconds(0), [] {});
  swapped.ScheduleAt(Milliseconds(2), [] {});
  swapped.ScheduleAt(Milliseconds(1), [] {});
  swapped.ScheduleAt(Milliseconds(3), [] {});
  swapped.RunAll();
  EXPECT_NE(swapped.dispatch_digest(), queued.dispatch_digest());
}

// The far heap takes events due at least the scheduler's kFarHorizon
// (50 ms) after they are scheduled; its capacity gauge shows how many
// went there.
double FarCapacity(Simulator& simulator) {
  simulator.CollectKernelMetrics();
  return obs::TakeSnapshot(simulator.metrics())
      .GaugeOr("sim.sched_far_capacity", -1);
}

TEST(SchedulerFarHeap, EventAtExactlyTheHorizonGoesFar) {
  constexpr SimTime kHorizon = Milliseconds(50);
  Simulator simulator(/*seed=*/1);
  Scheduler& sched = simulator.scheduler();
  std::vector<int> order;
  sched.ScheduleAt(Milliseconds(7), [&] {
    // Relative to now = 7 ms: one just inside the horizon, one exactly at
    // it, and an earlier-keyed near event at the same time as the far one.
    sched.ScheduleAfter(kHorizon, [&order] { order.push_back(3); });
    sched.ScheduleAfter(kHorizon - 1, [&order] { order.push_back(1); });
    sched.ScheduleAfter(kHorizon, [&order] { order.push_back(4); });
  });
  sched.RunUntil(Milliseconds(7));
  // Two entries, not three (capacity 4) or none: only the events at the
  // horizon went far.
  EXPECT_EQ(FarCapacity(simulator), 2.0);
  EXPECT_EQ(sched.pending(), 3u);
  sched.ScheduleAt(Milliseconds(57), [&order] { order.push_back(5); });
  sched.ScheduleAt(Milliseconds(30), [&order] { order.push_back(0); });
  sched.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 5}));
}

TEST(SchedulerFarHeap, CancelledPendingCountsBothHeaps) {
  Scheduler sched;
  const EventId near = sched.ScheduleAt(Milliseconds(1), [] {});
  const EventId far = sched.ScheduleAt(Seconds(4), [] {});
  sched.ScheduleAt(Seconds(5), [] {});
  EXPECT_TRUE(sched.Cancel(near));
  EXPECT_TRUE(sched.Cancel(far));
  EXPECT_EQ(sched.cancelled_pending(), 2u);
  EXPECT_EQ(sched.pending(), 1u);
  sched.RunAll();
  EXPECT_EQ(sched.cancelled_pending(), 0u);
  EXPECT_EQ(sched.stale_skips(), 2u);
  EXPECT_EQ(sched.events_run(), 1u);
}

TEST(SchedulerFarHeap, PruneCoversBothHeaps) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 100; ++i) {
    // Survivors alternate between the heaps; half the doomed events sit
    // in each heap.
    const SimTime at = i % 2 == 0 ? Milliseconds(1 + i) : Seconds(1) + i;
    sched.ScheduleAt(at, [&order, i] { order.push_back(i); });
    doomed.push_back(sched.ScheduleAt(Milliseconds(2 + i), [] {}));
    doomed.push_back(sched.ScheduleAt(Seconds(2) + i, [] {}));
  }
  for (EventId id : doomed) EXPECT_TRUE(sched.Cancel(id));
  EXPECT_GE(sched.prune_passes(), 1u);
  EXPECT_LT(sched.cancelled_pending(), 64u);
  EXPECT_EQ(sched.pending(), 100u);
  sched.RunAll();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(order[i], 2 * i);
    EXPECT_EQ(order[50 + i], 2 * i + 1);
  }
  EXPECT_EQ(sched.cancelled_pending(), 0u);
}

TEST(CancelTokenTest, FirstReasonWins) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  token.RequestCancel(CancelReason::kDrain);
  token.RequestCancel(CancelReason::kDeadline);  // Too late; drain wins.
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDrain);
  token.Reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(Simulator, ForkRngIsStableAcrossInstances) {
  Simulator a(99);
  Simulator b(99);
  EXPECT_EQ(a.ForkRng("x").NextUint64(), b.ForkRng("x").NextUint64());
  EXPECT_NE(a.ForkRng("x").NextUint64(), a.ForkRng("y").NextUint64());
  EXPECT_EQ(a.ForkRng("n", 3).NextUint64(), b.ForkRng("n", 3).NextUint64());
  EXPECT_NE(a.ForkRng("n", 3).NextUint64(), a.ForkRng("n", 4).NextUint64());
}

TEST(Simulator, AtAndAfterDelegate) {
  Simulator sim(1);
  int hits = 0;
  sim.At(Milliseconds(5), [&] { ++hits; });
  sim.After(Milliseconds(2), [&] { ++hits; });
  sim.RunUntil(Milliseconds(10));
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.now(), Milliseconds(5));
}

}  // namespace
}  // namespace ipda::sim
