// Wall-clock watchdog for in-flight simulation runs.
//
// A single background thread tracks the deadlines of every run currently
// executing; when one expires, the watchdog requests cooperative
// cancellation through the run's sim::CancelToken (reason kDeadline),
// which the scheduler observes between events. This converts a hung run
// — infinite rescheduling, pathological configs — into a structured
// RunFailure while the rest of the sweep proceeds.
//
// The wall-clock deadline is deliberately the nondeterministic safety
// net: byte-identity of resumed sweeps rests on the deterministic event
// budget (Scheduler::SetEventBudget), which trips at the same event for
// the same config and seed on every machine. The watchdog is
// belt-and-braces for runs that are stuck without consuming events.

#ifndef IPDA_EXP_WATCHDOG_H_
#define IPDA_EXP_WATCHDOG_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>

#include "sim/cancel.h"

namespace ipda::exp {

class Watchdog {
 public:
  Watchdog() = default;
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Arms a deadline `deadline_seconds` from now for `token`; on expiry
  // the watchdog calls token->RequestCancel(kDeadline). The token must
  // outlive the watch (Release it before destroying the token). A
  // deadline past the clock's range (or infinite, or NaN) never fires; a
  // non-positive one fires at once. Returns a handle for Release.
  // Thread-safe; the background thread starts lazily on the first call.
  uint64_t Watch(sim::CancelToken* token, double deadline_seconds);

  // Disarms a watch; after return the token will not be cancelled by
  // this watchdog. Releasing an already-tripped or unknown id is a
  // no-op.
  void Release(uint64_t id);

  // Number of deadlines that expired and cancelled their run.
  uint64_t trips() const;

 private:
  struct Watch_ {
    sim::CancelToken* token;
    std::chrono::steady_clock::time_point deadline;
  };

  void Run();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<uint64_t, Watch_> watches_;
  uint64_t next_id_ = 1;
  uint64_t trips_ = 0;
  bool shutdown_ = false;
  std::thread thread_;  // Guarded by mutex_ for start; joined in dtor.
};

// RAII watch: arms in the constructor, releases in the destructor, so a
// worker can scope a deadline to one attempt without cleanup paths.
class WatchdogLease {
 public:
  WatchdogLease() = default;
  WatchdogLease(Watchdog& dog, sim::CancelToken* token,
                double deadline_seconds)
      : dog_(&dog), id_(dog.Watch(token, deadline_seconds)) {}
  ~WatchdogLease() { Release(); }

  WatchdogLease(WatchdogLease&& other) noexcept
      : dog_(other.dog_), id_(other.id_) {
    other.dog_ = nullptr;
  }
  WatchdogLease& operator=(WatchdogLease&& other) noexcept {
    if (this != &other) {
      Release();
      dog_ = other.dog_;
      id_ = other.id_;
      other.dog_ = nullptr;
    }
    return *this;
  }

  WatchdogLease(const WatchdogLease&) = delete;
  WatchdogLease& operator=(const WatchdogLease&) = delete;

  void Release() {
    if (dog_ != nullptr) {
      dog_->Release(id_);
      dog_ = nullptr;
    }
  }

 private:
  Watchdog* dog_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace ipda::exp

#endif  // IPDA_EXP_WATCHDOG_H_
