// Simulator: the per-run simulation context shared by every component.
//
// Owns the scheduler and the root Rng; components fork label-addressed
// child streams so random draws stay independent across subsystems.

#ifndef IPDA_SIM_SIMULATOR_H_
#define IPDA_SIM_SIMULATOR_H_

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/scheduler.h"
#include "sim/time.h"
#include "util/random.h"

namespace ipda::sim {

class Simulator {
 public:
  explicit Simulator(uint64_t seed);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }

  SimTime now() const { return scheduler_.now(); }
  uint64_t seed() const { return seed_; }

  // Independent random stream for the named subsystem.
  util::Rng ForkRng(std::string_view label) const;
  // Independent random stream for (subsystem, index), e.g. per node.
  util::Rng ForkRng(std::string_view label, uint64_t index) const;

  // Per-run metrics registry and trace span log (DESIGN.md §11).
  // Components register instruments once at their Start() and sample them
  // through held pointers; nothing here feeds back into the simulation.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }
  obs::Trace& trace() { return trace_; }
  const obs::Trace& trace() const { return trace_; }

  // Pulls kernel-level health into the registry: scheduler dispatch and
  // cancellation counters, the dispatch-order digest, and near/far heap
  // and slot capacities (the zero-alloc referee). Idempotent; call before
  // taking a snapshot.
  void CollectKernelMetrics();

  // Convenience passthroughs. Templated so lambdas reach the scheduler's
  // small-buffer Callback directly, never boxed through std::function.
  template <typename F>
  EventId At(SimTime t, F&& fn) {
    return scheduler_.ScheduleAt(t, std::forward<F>(fn));
  }
  template <typename F>
  EventId After(SimTime delay, F&& fn) {
    return scheduler_.ScheduleAfter(delay, std::forward<F>(fn));
  }
  size_t RunUntil(SimTime deadline) { return scheduler_.RunUntil(deadline); }
  size_t RunAll() { return scheduler_.RunAll(); }

 private:
  uint64_t seed_;
  util::Rng root_rng_;
  obs::Registry metrics_;
  obs::Trace trace_;
  Scheduler scheduler_;
};

}  // namespace ipda::sim

#endif  // IPDA_SIM_SIMULATOR_H_
