// Experiment engine: fans a sweep's independent simulation runs across
// threads that share one index counter.
//
// The determinism contract (locked down by tests/exp_engine_test.cc and
// the golden traces): for any jobs value, the engine produces the same
// results in the same order, because
//   (1) every run's seed derives from (sweep seed, point label, run
//       index) — never from which worker ran it or when;
//   (2) runs are shared-nothing: each builds its own Simulator, Network,
//       and protocol state, and library code holds no mutable globals;
//   (3) results land in slot i of a preallocated vector, so collection
//       order equals submission order regardless of completion order.
// Nothing depends on the schedule, so ParallelFor makes no ordering
// promise at all.

#ifndef IPDA_EXP_ENGINE_H_
#define IPDA_EXP_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace ipda::exp {

// Scheduling-independent per-run seed, label-forked from the sweep seed.
// Mirrors util::Rng::Fork's (seed, label) addressing so a sweep point's
// stream is independent of every other point and of the sweep seed's own
// direct use.
uint64_t DeriveRunSeed(uint64_t sweep_seed, std::string_view point_label,
                       uint64_t run_index);

// Retry seed for attempt `attempt` of a run whose first attempt used
// `run_seed`. Attempt 0 returns run_seed unchanged, so sweeps that never
// retry keep today's byte-identical output; later attempts fork a fresh,
// deterministic stream so a failure is not replayed verbatim.
uint64_t ForkAttemptSeed(uint64_t run_seed, uint32_t attempt);

// Maps a --jobs flag value to a worker count: 0 = all hardware threads,
// anything else is taken literally (minimum 1).
size_t ResolveJobs(int64_t jobs_flag);

class Engine {
 public:
  // `jobs` as from ResolveJobs: total threads, calling thread included.
  explicit Engine(size_t jobs) : jobs_(jobs == 0 ? 1 : jobs) {}

  size_t jobs() const { return jobs_; }

  // Runs fn(i) once for every i in [0, count) and returns when all calls
  // have. The calling thread and min(jobs, count) - 1 helper threads
  // started for this call each take the next index from one shared
  // counter, so uneven run times balance one index at a time. With
  // jobs == 1 or count <= 1 it is a plain loop on the calling thread. An
  // exception from fn reaches the caller after every thread has stopped.
  void ParallelFor(size_t count,
                   const std::function<void(size_t)>& fn) const;

 private:
  size_t jobs_;
};

}  // namespace ipda::exp

#endif  // IPDA_EXP_ENGINE_H_
