// Cross-layer metrics collection for one completed run (DESIGN.md §11).
//
// The registry lives on the run's Simulator, but most layers already keep
// their own tallies (NodeCounters, IpdaStats, thread-local crypto stats).
// This collector is the one place that pulls them all into the registry —
// agg is the only library that links every subsystem, so the pull happens
// here without adding a dependency edge anywhere below.
//
// All writes are Counter::Set / Gauge::Set, so collection is idempotent
// and pure observation: calling it cannot perturb the run it measures.

#ifndef IPDA_AGG_RUN_METRICS_H_
#define IPDA_AGG_RUN_METRICS_H_

#include "agg/ipda/config.h"
#include "agg/ipda/protocol.h"
#include "crypto/stats.h"
#include "fault/churn_injector.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace ipda::agg {

// Pulls every layer's tallies into the run simulator's registry:
//   sim.*           — kernel health (Simulator::CollectKernelMetrics)
//   pool.*          — the channel's frame table (Channel::CollectMetrics)
//   net.*           — CounterBoard totals, derived protocol-only traffic
//                     (frames/bytes minus the MAC-ACK subset), per-node
//                     bytes histogram, energy gauges
//   crypto.*        — hot-path deltas vs `crypto_base`, the tally
//                     ThreadCryptoStats() returned before the run started
//                     (runs execute whole on one thread), plus the
//                     crypto.backend.xtea gauge naming the link cipher
//   fault.*         — injector totals when a fault or churn plan was armed
// Call after the simulation has run and before taking a snapshot.
void CollectRunMetrics(sim::Simulator& simulator,
                       const net::Network& network,
                       const crypto::CryptoStats& crypto_base,
                       const fault::FaultInjector* injector = nullptr,
                       const fault::ChurnInjector* churn = nullptr,
                       // Kept only for roundbench; XTEA is the one cipher.
                       crypto::CipherKind cipher = crypto::CipherKind::kXtea);

// iPDA layer: IpdaStats as agg.* instruments, plus the round's phase
// spans — query.dissemination, slicing, assembly, aggregation,
// verification — derived from the config's deterministic phase schedule
// (agg/ipda/config.h), with verification closing at the simulator's
// current time.
void CollectIpdaMetrics(sim::Simulator& simulator, const IpdaStats& stats,
                        const IpdaConfig& config);

}  // namespace ipda::agg

#endif  // IPDA_AGG_RUN_METRICS_H_
