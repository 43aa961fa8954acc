#include "exp/watchdog.h"

namespace ipda::exp {

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

uint64_t Watchdog::Watch(sim::CancelToken* token, double deadline_seconds) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point now = Clock::now();
  // A deadline beyond the clock's range (an infinity included) saturates
  // to never: converting it to integer ticks would overflow and fire at
  // once. The one-second margin covers the rounding of the double
  // comparison. A NaN deadline never fires either.
  const Clock::duration headroom =
      Clock::time_point::max() - now - std::chrono::seconds(1);
  const std::chrono::duration<double> wait(deadline_seconds);
  Clock::time_point deadline = Clock::time_point::max();
  if (deadline_seconds <= 0.0) {
    deadline = now;
  } else if (wait < headroom) {
    deadline = now + std::chrono::duration_cast<Clock::duration>(wait);
  }
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    watches_.emplace(id, Watch_{token, deadline});
    if (!thread_.joinable()) {
      thread_ = std::thread(&Watchdog::Run, this);
    }
  }
  cv_.notify_all();
  return id;
}

void Watchdog::Release(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  watches_.erase(id);
  // No notify: the thread waking to a smaller set is harmless, and the
  // release path is on every run's hot exit.
}

uint64_t Watchdog::trips() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return trips_;
}

void Watchdog::Run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!shutdown_) {
    // Fire everything expired, then sleep until the earliest remaining
    // deadline (or indefinitely when idle).
    const auto now = std::chrono::steady_clock::now();
    auto earliest = std::chrono::steady_clock::time_point::max();
    for (auto it = watches_.begin(); it != watches_.end();) {
      if (it->second.deadline <= now) {
        it->second.token->RequestCancel(sim::CancelReason::kDeadline);
        ++trips_;
        it = watches_.erase(it);
      } else {
        earliest = std::min(earliest, it->second.deadline);
        ++it;
      }
    }
    if (earliest == std::chrono::steady_clock::time_point::max()) {
      cv_.wait(lock);
    } else {
      cv_.wait_until(lock, earliest);
    }
  }
}

}  // namespace ipda::exp
