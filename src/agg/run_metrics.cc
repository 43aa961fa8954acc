#include "agg/run_metrics.h"

#include <algorithm>

#include "obs/metrics.h"

namespace ipda::agg {
namespace {

// Bucket bounds for the per-node bytes-sent histogram: powers of four
// from one short frame to well past any single node's round traffic.
const std::vector<double>& NodeBytesBounds() {
  static const std::vector<double> bounds = {64,    256,    1024,
                                             4096,  16384,  65536};
  return bounds;
}

void SetCounter(obs::Registry& reg, const char* name, uint64_t v) {
  reg.GetCounter(name)->Set(v);
}

void SetGauge(obs::Registry& reg, const char* name, double v) {
  reg.GetGauge(name)->Set(v);
}

}  // namespace

void CollectRunMetrics(sim::Simulator& simulator,
                       const net::Network& network,
                       const crypto::CryptoStats& crypto_base,
                       const fault::FaultInjector* injector,
                       const fault::ChurnInjector* churn,
                       crypto::CipherKind /*cipher*/) {
  simulator.CollectKernelMetrics();
  obs::Registry& reg = simulator.metrics();
  network.channel().CollectMetrics(reg);
  SetGauge(reg, "sim.duration_s",
           sim::ToSeconds(simulator.now()));

  const net::NodeCounters t = network.counters().Totals();
  SetCounter(reg, "net.frames_sent", t.frames_sent);
  SetCounter(reg, "net.bytes_sent", t.bytes_sent);
  SetCounter(reg, "net.ack_frames_sent", t.ack_frames_sent);
  SetCounter(reg, "net.ack_bytes_sent", t.ack_bytes_sent);
  SetCounter(reg, "net.frames_delivered", t.frames_delivered);
  SetCounter(reg, "net.bytes_delivered", t.bytes_delivered);
  SetCounter(reg, "net.frames_collided", t.frames_collided);
  SetCounter(reg, "net.frames_missed_tx", t.frames_missed_tx);
  SetCounter(reg, "net.mac_drops", t.mac_drops);
  SetCounter(reg, "net.arq_retries", t.arq_retries);
  SetCounter(reg, "net.injected_drops", t.injected_drops);
  SetCounter(reg, "net.injected_dup", t.injected_dup);
  SetCounter(reg, "net.recoveries", t.recoveries);
  // Protocol-only traffic: what fig7_overhead plots (MAC ACKs excluded).
  SetCounter(reg, "net.protocol_frames", t.frames_sent - t.ack_frames_sent);
  SetCounter(reg, "net.protocol_bytes", t.bytes_sent - t.ack_bytes_sent);

  SetGauge(reg, "net.energy_total_j", t.TotalEnergyJ());
  double hottest = 0.0;
  obs::Histogram* node_bytes =
      reg.GetHistogram("net.node_bytes_sent", NodeBytesBounds());
  // Node 0 is the base station; it is a real radio, so it counts too.
  for (size_t id = 0; id < network.counters().node_count(); ++id) {
    const net::NodeCounters& c = network.counters().at(id);
    hottest = std::max(hottest, c.TotalEnergyJ());
    node_bytes->Observe(static_cast<double>(c.bytes_sent));
  }
  SetGauge(reg, "net.energy_hottest_node_j", hottest);

  const crypto::CryptoStats d = crypto::ThreadCryptoStats() - crypto_base;
  SetCounter(reg, "crypto.ctr_blocks_batched", d.ctr_blocks_batched);
  SetCounter(reg, "crypto.keystream_bytes", d.keystream_bytes);
  SetCounter(reg, "crypto.keystore_dense_hits", d.keystore_dense_hits);
  SetCounter(reg, "crypto.schedules_built", d.schedules_built);
  // Names the link cipher in every snapshot (value is always 1).
  SetGauge(reg, "crypto.backend.xtea", 1.0);

  if (injector != nullptr) {
    SetCounter(reg, "fault.crashes", injector->crashes_fired());
    SetCounter(reg, "fault.recoveries", injector->recoveries_fired());
  }
  if (churn != nullptr) {
    SetCounter(reg, "fault.churn_joins", churn->joins_fired());
    SetCounter(reg, "fault.churn_leaves", churn->leaves_fired());
    SetCounter(reg, "fault.churn_move_steps", churn->move_steps_fired());
    SetCounter(reg, "fault.churn_edge_changes",
               network.topology().edge_changes());
  }
}

void CollectIpdaMetrics(sim::Simulator& simulator, const IpdaStats& stats,
                        const IpdaConfig& config) {
  obs::Registry& reg = simulator.metrics();
  SetCounter(reg, "agg.covered_both", stats.covered_both);
  SetCounter(reg, "agg.red_aggregators", stats.red_aggregators);
  SetCounter(reg, "agg.blue_aggregators", stats.blue_aggregators);
  SetCounter(reg, "agg.leaves", stats.leaves);
  SetCounter(reg, "agg.undecided", stats.undecided);
  SetCounter(reg, "agg.excluded", stats.excluded);
  SetCounter(reg, "agg.participants", stats.participants);
  SetCounter(reg, "agg.slices_sent", stats.slices_sent);
  SetCounter(reg, "agg.slice_decrypt_failures",
             stats.slice_decrypt_failures);
  SetCounter(reg, "agg.reports_sent", stats.reports_sent);
  SetCounter(reg, "agg.slices_retargeted", stats.slices_retargeted);
  SetCounter(reg, "agg.slices_lost", stats.slices_lost);
  SetCounter(reg, "agg.reports_rerouted", stats.reports_rerouted);
  SetCounter(reg, "agg.orphaned_partials", stats.orphaned_partials);
  SetCounter(reg, "agg.late_partials", stats.late_partials);
  SetGauge(reg, "agg.completeness_red", stats.completeness_red);
  SetGauge(reg, "agg.completeness_blue", stats.completeness_blue);
  SetGauge(reg, "agg.degraded", stats.degraded ? 1.0 : 0.0);
  SetGauge(reg, "agg.accepted", stats.decision.accepted ? 1.0 : 0.0);
  SetGauge(reg, "agg.red_blue_diff", stats.decision.max_component_diff);

  // Churn-response instruments exist only when the feature is on, so
  // churn-free registries (and their golden snapshots) stay unchanged.
  if (config.churn_response != ChurnResponse::kNone) {
    SetCounter(reg, "agg.joins_absorbed", stats.joins_absorbed);
    SetCounter(reg, "agg.grafts", stats.grafts);
    SetCounter(reg, "agg.disjoint_violations", stats.disjoint_violations);
    SetCounter(reg, "agg.backoff_retries", stats.backoff_retries);
    SetCounter(reg, "agg.repair_budget_exhausted",
               stats.repair_budget_exhausted);
    SetCounter(reg, "agg.relay_forwards", stats.relay_forwards);
    SetCounter(reg, "agg.relays_lost", stats.relays_lost);
    SetCounter(reg, "agg.rebuild_floods", stats.rebuild_floods);
    SetCounter(reg, "agg.churn_control_msgs", stats.churn_control_msgs);
    static const std::vector<double> kRepairBounds = {1, 2, 4, 8, 16, 32};
    reg.GetHistogram("agg.repairs_per_round", kRepairBounds)
        ->Observe(static_cast<double>(stats.grafts));
    static const std::vector<double> kLatencyBounds = {10,  25,  50, 100,
                                                       200, 400, 800};
    obs::Histogram* latency =
        reg.GetHistogram("agg.repair_latency_ms", kLatencyBounds);
    for (double ms : stats.repair_latencies_ms) latency->Observe(ms);
  }

  // Phase spans on the round's deterministic schedule. The boundaries are
  // config-derived, never measured, so the trace is byte-identical across
  // machines and --jobs values; verification closes at the simulator's
  // clock (itself deterministic) since Finish() runs after the deadline.
  obs::Trace& trace = simulator.trace();
  const sim::SimTime slice_start = IpdaSliceStart(config);
  const sim::SimTime report_start = IpdaReportStart(config);
  const sim::SimTime deadline = IpdaRoundDeadline(config);
  trace.Span("query.dissemination", 0, slice_start);
  trace.Span("slicing", slice_start, slice_start + config.slice_window);
  trace.Span("assembly", slice_start + config.slice_window, report_start);
  trace.Span("aggregation", report_start, std::max(report_start, deadline));
  trace.Span("verification", std::max(report_start, deadline),
             std::max(simulator.now(),
                      std::max(report_start, deadline)));
}

}  // namespace ipda::agg
