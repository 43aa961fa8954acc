#include "sim/simulator.h"

namespace ipda::sim {

Simulator::Simulator(uint64_t seed) : seed_(seed), root_rng_(seed) {}

util::Rng Simulator::ForkRng(std::string_view label) const {
  return root_rng_.Fork(label);
}

util::Rng Simulator::ForkRng(std::string_view label, uint64_t index) const {
  return root_rng_.Fork(label).Fork(index);
}

void Simulator::CollectKernelMetrics() {
  metrics_.GetCounter("sim.events_run")->Set(scheduler_.events_run());
  metrics_.GetCounter("sim.sched_stale_skips")->Set(scheduler_.stale_skips());
  metrics_.GetCounter("sim.sched_prunes")->Set(scheduler_.prune_passes());
  metrics_.GetCounter("sim.dispatch_digest")
      ->Set(scheduler_.dispatch_digest());
  metrics_.GetGauge("sim.sched_cancelled_pending")
      ->Set(static_cast<double>(scheduler_.cancelled_pending()));

  metrics_.GetGauge("sim.sched_heap_capacity")
      ->Set(static_cast<double>(scheduler_.near_.capacity()));
  metrics_.GetGauge("sim.sched_far_capacity")
      ->Set(static_cast<double>(scheduler_.far_.capacity()));
  metrics_.GetGauge("sim.sched_slot_capacity")
      ->Set(static_cast<double>(scheduler_.slots_.capacity()));
  metrics_.GetGauge("sim.sched_overflow_slabs")
      ->Set(static_cast<double>(scheduler_.overflow_.slab_count()));
}

}  // namespace ipda::sim
