// Watchdog: wall-clock deadlines that cancel hung runs cooperatively.

#include "exp/watchdog.h"

#include <chrono>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/cancel.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace ipda::exp {
namespace {

// Spin (with sleeps) until the predicate holds or ~5s elapse. Watchdog
// timing is inherently wall-clock; keep assertions latency-tolerant.
template <typename Pred>
bool EventuallyTrue(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(Watchdog, ExpiredDeadlineCancelsWithDeadlineReason) {
  Watchdog dog;
  sim::CancelToken token;
  dog.Watch(&token, 0.005);
  ASSERT_TRUE(EventuallyTrue([&] { return token.cancelled(); }));
  EXPECT_EQ(token.reason(), sim::CancelReason::kDeadline);
  EXPECT_TRUE(EventuallyTrue([&] { return dog.trips() == 1; }));
}

// Deadlines past steady_clock's range once overflowed the integer tick
// count into the past and cancelled the run at once.
TEST(Watchdog, DeadlinesBeyondTheClockRangeNeverFire) {
  Watchdog dog;
  const double huge[] = {std::numeric_limits<double>::infinity(), 1e300,
                         std::numeric_limits<double>::max(), 9.3e9,
                         std::numeric_limits<double>::quiet_NaN()};
  std::vector<sim::CancelToken> tokens(std::size(huge));
  for (size_t i = 0; i < tokens.size(); ++i) dog.Watch(&tokens[i], huge[i]);
  sim::CancelToken prompt;
  dog.Watch(&prompt, 0.005);
  ASSERT_TRUE(EventuallyTrue([&] { return prompt.cancelled(); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (const sim::CancelToken& token : tokens) {
    EXPECT_FALSE(token.cancelled());
  }
  EXPECT_EQ(dog.trips(), 1u);
}

TEST(Watchdog, ReleasePreventsTrip) {
  Watchdog dog;
  sim::CancelToken token;
  const uint64_t id = dog.Watch(&token, 0.02);
  dog.Release(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(dog.trips(), 0u);
}

TEST(Watchdog, LeaseReleasesOnScopeExit) {
  Watchdog dog;
  sim::CancelToken token;
  {
    WatchdogLease lease(dog, &token, 0.02);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(token.cancelled());
}

TEST(Watchdog, ManyConcurrentWatchesTripIndependently) {
  Watchdog dog;
  constexpr size_t kCount = 16;
  std::vector<sim::CancelToken> doomed(kCount);
  std::vector<sim::CancelToken> safe(kCount);
  std::vector<uint64_t> safe_ids;
  for (size_t i = 0; i < kCount; ++i) {
    dog.Watch(&doomed[i], 0.001 + 0.001 * static_cast<double>(i % 4));
    safe_ids.push_back(dog.Watch(&safe[i], 30.0));
  }
  ASSERT_TRUE(EventuallyTrue([&] {
    for (const auto& token : doomed) {
      if (!token.cancelled()) return false;
    }
    return true;
  }));
  for (const auto& token : safe) EXPECT_FALSE(token.cancelled());
  for (uint64_t id : safe_ids) dog.Release(id);
  EXPECT_EQ(dog.trips(), kCount);
}

TEST(Watchdog, ConvertsHungSchedulerRunIntoReturn) {
  // The acceptance-criteria fixture: a run whose event loop never
  // drains because every event reschedules itself. The watchdog's
  // cooperative cancel is the only thing that ends it.
  Watchdog dog;
  sim::Scheduler sched;
  sim::CancelToken token;
  sched.SetCancelToken(&token);
  std::function<void()> forever = [&] {
    sched.ScheduleAfter(sim::Milliseconds(1), forever);
  };
  sched.ScheduleAt(sim::Milliseconds(1), forever);
  const uint64_t id = dog.Watch(&token, 0.05);
  sched.RunAll();  // Returns only because the watchdog fires.
  dog.Release(id);
  EXPECT_TRUE(sched.interrupted());
  EXPECT_EQ(sched.interrupt_cause(), sim::Scheduler::InterruptCause::kCancel);
  EXPECT_EQ(token.reason(), sim::CancelReason::kDeadline);
}

}  // namespace
}  // namespace ipda::exp
