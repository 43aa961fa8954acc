#include "exp/engine.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/random.h"

namespace ipda::exp {

uint64_t DeriveRunSeed(uint64_t sweep_seed, std::string_view point_label,
                       uint64_t run_index) {
  return util::Mix64(util::Mix64(sweep_seed, util::HashLabel(point_label)),
                     run_index);
}

uint64_t ForkAttemptSeed(uint64_t run_seed, uint32_t attempt) {
  if (attempt == 0) return run_seed;
  return util::Mix64(run_seed, 0x9E3779B97F4A7C15ull + attempt);
}

size_t ResolveJobs(int64_t jobs_flag) {
  if (jobs_flag > 0) return static_cast<size_t>(jobs_flag);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void Engine::ParallelFor(size_t count,
                         const std::function<void(size_t)>& fn) const {
  const size_t threads = std::min(jobs_, count);
  if (threads <= 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // A throwing fn stops further indices from being handed out; the first
  // thread's exception is rethrown here once every helper has joined.
  std::atomic<size_t> next{0};
  std::vector<std::exception_ptr> errors(threads);
  const auto drain = [&](size_t thread) {
    try {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
    } catch (...) {
      errors[thread] = std::current_exception();
      next.store(count, std::memory_order_relaxed);
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (size_t t = 1; t < threads; ++t) helpers.emplace_back(drain, t);
    drain(0);
  }  // The helpers join here.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace ipda::exp
