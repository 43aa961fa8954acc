// iPDA protocol parameters (§III).

#ifndef IPDA_AGG_IPDA_CONFIG_H_
#define IPDA_AGG_IPDA_CONFIG_H_

#include <cstdint>

#include "crypto/cipher.h"
#include "sim/time.h"
#include "util/status.h"

namespace ipda::agg {

// How the protocol reacts to mid-round topology churn (DESIGN.md §12).
enum class ChurnResponse : uint8_t {
  kNone = 0,     // Ignore churn signals; only PR-1 failover applies.
  kRepair = 1,   // Incremental disjoint-tree repair: orphaned subtrees
                 // graft onto a new same-color parent, joiners attach as
                 // leaves via kJoin solicitation.
  kRebuild = 2,  // Re-flood HELLOs from every decided aggregator on any
                 // topology change (throttled) — the from-scratch
                 // baseline the repair path is benchmarked against.
};

struct IpdaConfig {
  // --- Paper parameters ---
  uint32_t slice_count = 2;   // l: pieces per reading (paper recommends 2).
  uint32_t k = 4;             // Aggregator budget for adaptive roles (§III-B).
  bool adaptive_roles = false;  // Eq. (1) adaptive p_r/p_b; false = Eq. (2),
                                // p_r = p_b = 0.5, the evaluation setting.
  double threshold = 5.0;     // Th: |S_red - S_blue| acceptance bound.
  double slice_range = 50.0;  // Random slices drawn uniform in +/- range.
  bool encrypt_slices = true;  // Link-level encryption of slices (§III-C-1).
  // Kept only for roundbench, which still passes it on; slices are
  // always sealed with XTEA-CTR and nothing here reads it.
  crypto::CipherKind cipher = crypto::CipherKind::kXtea;

  // --- Robustness extensions (not in the paper; ablation bench) ---
  // Extra HELLO re-broadcasts per aggregator during Phase I. Covers HELLO
  // collision losses; measurement shows it does NOT fix sparse-network
  // coverage, because the dominant stall is color starvation, not loss.
  uint32_t hello_repeats = 0;
  sim::SimTime hello_repeat_interval = sim::Milliseconds(700);
  // Impatient join: a node that heard only one color for `impatient_wait`
  // joins that color's tree as an aggregator instead of waiting forever.
  // This breaks the color-starvation deadlock (a frontier where every
  // waiting node needs the *other* color can never unblock itself) and is
  // the extension that actually recovers sparse-network coverage.
  bool impatient_join = false;
  sim::SimTime impatient_wait = sim::Milliseconds(900);

  // --- Failure resilience (not in the paper; fault-injection rounds) ---
  // The MAC's ARQ doubles as a liveness probe: a unicast that exhausts
  // its retries declares the peer dead. With retarget_slices on, a sensor
  // whose slice died that way re-aims it at a different live aggregator
  // of the same tree before Phase II commits (at most slice_retarget_max
  // re-aims per slice). With parent_failover on, an aggregator whose
  // parent died re-sends its partial to a live strictly-lower-hop
  // aggregator of its color (the base station always qualifies), riding
  // the depth-slotted report schedule: lower-hop parents report later,
  // so the re-sent partial still catches the next slot rootward.
  bool retarget_slices = false;
  uint32_t slice_retarget_max = 2;
  bool parent_failover = false;
  // Base-station finalization deadline; 0 = IpdaDuration(config). At the
  // deadline both accumulators freeze and the round is decided with
  // whatever partials arrived — a vanished subtree degrades the round
  // (IpdaStats::degraded) instead of stalling it.
  sim::SimTime round_deadline = 0;

  // --- Mid-round churn response (not in the paper; DESIGN.md §12) ---
  // Tree-control messages (join solicits, graft resends, rebuild floods)
  // retry under jittered exponential backoff: attempt i waits
  // min(base * 2^i, max) plus uniform jitter in [0, base), and each node
  // spends at most repair_attempt_budget control attempts per round.
  ChurnResponse churn_response = ChurnResponse::kNone;
  uint32_t repair_attempt_budget = 8;
  sim::SimTime repair_backoff_base = sim::Milliseconds(25);
  sim::SimTime repair_backoff_max = sim::Milliseconds(400);
  // Minimum spacing between full rebuild floods (kRebuild only).
  sim::SimTime rebuild_min_interval = sim::Milliseconds(400);

  // --- Phase timing ---
  sim::SimTime hello_jitter_max = sim::Milliseconds(40);
  sim::SimTime decide_window = sim::Milliseconds(120);  // HELLO gather time.
  sim::SimTime phase1_window = sim::Seconds(4);         // Tree construction.
  sim::SimTime slice_window = sim::Milliseconds(800);   // Slicing spread.
  sim::SimTime slot = sim::Milliseconds(100);           // Phase III slots.
  uint32_t max_depth = 24;
  sim::SimTime report_jitter_max = sim::Milliseconds(60);
};

util::Status ValidateIpdaConfig(const IpdaConfig& config);

// Simulated time from protocol start until the base-station decision.
sim::SimTime IpdaDuration(const IpdaConfig& config);

// When the base station freezes its accumulators and decides: the
// configured round_deadline, or IpdaDuration when unset.
sim::SimTime IpdaRoundDeadline(const IpdaConfig& config);

// Start of Phase II (slicing) relative to protocol start.
sim::SimTime IpdaSliceStart(const IpdaConfig& config);

// Start of Phase III (tree reports) relative to protocol start.
sim::SimTime IpdaReportStart(const IpdaConfig& config);

}  // namespace ipda::agg

#endif  // IPDA_AGG_IPDA_CONFIG_H_
