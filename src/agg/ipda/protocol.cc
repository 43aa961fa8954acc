#include "agg/ipda/protocol.h"

#include <algorithm>
#include <utility>

#include "agg/link_keys.h"
#include "agg/partial.h"
#include "agg/tag_tree.h"
#include "crypto/pairwise.h"
#include "net/packet.h"
#include "util/check.h"
#include "util/logging.h"

namespace ipda::agg {

IpdaProtocol::IpdaProtocol(net::Network* network,
                           const AggregateFunction* function,
                           IpdaConfig config)
    : network_(network),
      function_(function),
      config_(config),
      bs_acc_(function != nullptr ? function->arity() : 0) {
  IPDA_CHECK(network != nullptr);
  IPDA_CHECK(function != nullptr);
  IPDA_CHECK(ValidateIpdaConfig(config).ok());
  readings_.assign(network_->size(), 0.0);
  partial_delivered_.assign(network_->size(), false);
  states_.resize(network_->size());
  for (net::NodeId id = 0; id < network_->size(); ++id) {
    NodeState& state = states_[id];
    state.assembled.assign(function_->arity(), 0.0);
    state.children.assign(function_->arity(), 0.0);
    state.builder = std::make_unique<TreeBuilder>(
        id, &config_, network_->node(id).rng().Fork("tree-builder"),
        [this, id](sim::SimTime delay, std::function<void()> fn) {
          network_->sim().After(delay, std::move(fn));
        },
        [this, id](const HelloMsg& hello) { OnJoined(id, hello); });
    state.builder->ReserveSenders(network_->topology().degree(id));
  }
}

void IpdaProtocol::SetReadings(std::vector<double> readings) {
  IPDA_CHECK_EQ(readings.size(), network_->size());
  readings_ = std::move(readings);
}

void IpdaProtocol::SetQuery(const Query& query) {
  IPDA_CHECK(!started_);
  auto resolved = FunctionForQuery(query);
  IPDA_CHECK(resolved.ok());
  IPDA_CHECK_EQ((*resolved)->arity(), function_->arity());
  query_ = query;
}

void IpdaProtocol::SetLinkCrypto(std::vector<crypto::LinkCrypto>* cryptos) {
  IPDA_CHECK(!started_);
  IPDA_CHECK(cryptos != nullptr);
  IPDA_CHECK_EQ(cryptos->size(), network_->size());
  cryptos_ = cryptos;
}

void IpdaProtocol::SetPollutionHook(PollutionHook hook) {
  pollution_hook_ = std::move(hook);
}

void IpdaProtocol::SetSliceObserver(SliceObserver observer) {
  slice_observer_ = std::move(observer);
}

void IpdaProtocol::SetExcludedNodes(const std::vector<net::NodeId>& nodes) {
  IPDA_CHECK(!started_);
  for (net::NodeId id : nodes) {
    IPDA_CHECK_NE(id, net::kBaseStationId);
    if (!states_[id].excluded) {
      states_[id].excluded = true;
      states_[id].builder->ForceRole(NodeRole::kExcluded);
    }
  }
}

void IpdaProtocol::Start() {
  IPDA_CHECK(!started_);
  started_ = true;
  if (config_.encrypt_slices && cryptos_ == nullptr) {
    // Under churn, any pair can become a link mid-round (movers,
    // joiners), so nodes also derive keys for non-neighbours on first
    // contact rather than hold all N(N-1)/2 up front.
    owned_cryptos_ = ProvisionPairwiseKeys(
        network_->topology(),
        crypto::PairwiseKeyScheme(
            util::Mix64(network_->sim().seed(), 0x697044414b455953ULL)),
        config_.churn_response == ChurnResponse::kNone
            ? crypto::KeyStore::DeriveScope::kProvisionedPeers
            : crypto::KeyStore::DeriveScope::kAnyPeer);
    cryptos_ = &owned_cryptos_;
  }

  for (net::NodeId id = 0; id < network_->size(); ++id) {
    network_->node(id).SetReceiveHandler(
        [this, id](const net::Packet& packet) { OnPacket(id, packet); });
  }
  if (config_.retarget_slices || config_.parent_failover ||
      config_.churn_response != ChurnResponse::kNone) {
    // ARQ exhaustion is the liveness signal: the MAC hands back the frame
    // it gave up on, and the protocol reroutes around the dead peer.
    for (net::NodeId id = 1; id < network_->size(); ++id) {
      network_->node(id).SetSendFailureHandler(
          [this, id](const net::Packet& packet) { OnSendFailure(id, packet); });
    }
  }
  if (config_.churn_response != ChurnResponse::kNone) {
    // One advancing backoff/jitter stream per node for the whole round.
    for (net::NodeId id = 0; id < network_->size(); ++id) {
      states_[id].repair_rng = network_->node(id).rng().Fork("churn-repair");
    }
  }

  // The round decides at the deadline no matter what arrived; scheduling
  // from here (time 0) gives the freeze the lowest sequence number at its
  // timestamp, so no same-instant report can sneak into the accumulators.
  network_->sim().At(IpdaRoundDeadline(config_), [this] { Finish(); });

  // Base station roots both trees.
  states_[net::kBaseStationId].builder->ForceRole(NodeRole::kBaseStation);
  auto& bs = network_->base_station();
  util::Rng bs_rng = bs.rng().Fork("ipda-start");
  ScheduleHellos(net::kBaseStationId,
                 HelloMsg{TreeColor::kBoth, 0, query_}, bs_rng);

  // Phase II: every sensor attempts slicing at a jittered point inside the
  // slice window. Nodes that turn out uncovered or target-starved no-op.
  const sim::SimTime slice_start = IpdaSliceStart(config_);
  for (net::NodeId id = 1; id < network_->size(); ++id) {
    if (states_[id].excluded) continue;
    util::Rng rng = network_->node(id).rng().Fork("slice-schedule");
    const sim::SimTime at =
        slice_start + UniformDelay(rng, config_.slice_window);
    network_->sim().At(at, [this, id] { DoSlicing(id); });
  }
}

void IpdaProtocol::OnPacket(net::NodeId self, const net::Packet& packet) {
  if (finished_) return;  // Accumulators froze at the round deadline.
  NodeState& state = states_[self];
  if (state.excluded) return;
  switch (packet.type) {
    case net::PacketType::kHello: {
      // A broadcast reaches every neighbor with the same bytes: decode
      // each frame once. The channel numbers frames from 1.
      if (packet.uid != hello_uid_) {
        auto decoded = DecodeHelloMsg(packet.payload);
        hello_uid_ = packet.uid;
        hello_ = decoded.ok() ? std::optional<HelloMsg>(*decoded)
                              : std::nullopt;
      }
      if (!hello_.has_value()) return;
      const HelloMsg& hello = *hello_;
      if (hello.query.has_value() && !state.received_query.has_value()) {
        state.received_query = hello.query;
      }
      state.builder->OnHello(packet.src, hello);
      break;
    }
    case net::PacketType::kSlice: {
      const util::Bytes* plaintext = &packet.payload;
      if (config_.encrypt_slices) {
        if (!crypto_for(self)
                 .Open(packet.src, packet.payload, scratch_.opened)
                 .ok()) {
          stats_.slice_decrypt_failures += 1;
          return;
        }
        plaintext = &scratch_.opened;
      }
      Vector& slice = scratch_.decoded;
      auto color = DecodeSliceMsg(*plaintext, slice);
      if (!color.ok() || slice.size() != function_->arity()) return;
      if (self == net::kBaseStationId) {
        bs_acc_.Add(*color, slice);
        return;
      }
      // Only the intended tree may absorb the slice.
      if (!RoleMatchesColor(state.builder->role(), *color)) return;
      AddInto(state.assembled, slice);
      break;
    }
    case net::PacketType::kAggregate: {
      Vector& partial = scratch_.decoded;
      auto color = DecodeAggregateMsg(packet.payload, partial);
      if (!color.ok() || partial.size() != function_->arity()) return;
      if (self == net::kBaseStationId) {
        partial_delivered_[packet.src] = true;
        bs_acc_.Add(*color, partial);
        return;
      }
      if (!RoleMatchesColor(state.builder->role(), *color)) return;
      if (state.reported) {
        // Our own partial already left; absorbing now would change
        // nothing downstream. Count the orphan instead of hiding it.
        stats_.late_partials += 1;
        return;
      }
      partial_delivered_[packet.src] = true;
      AddInto(state.children, partial);
      break;
    }
    case net::PacketType::kJoin: {
      if (config_.churn_response == ChurnResponse::kNone) break;
      if (!IsJoinSolicitMsg(packet.payload)) break;
      // Only tree members that can serve as parents answer: the base
      // station and decided aggregators re-advertise their position
      // (leaves stay silent, as in Phase I).
      HelloMsg reply;
      if (self == net::kBaseStationId) {
        reply = HelloMsg{TreeColor::kBoth, 0, query_};
      } else {
        const NodeRole role = state.builder->role();
        if (role != NodeRole::kRedAggregator &&
            role != NodeRole::kBlueAggregator) {
          break;
        }
        reply = HelloMsg{role == NodeRole::kRedAggregator ? TreeColor::kRed
                                                          : TreeColor::kBlue,
                         state.builder->hop(), state.received_query};
      }
      const sim::SimTime jitter =
          UniformDelay(*state.repair_rng, config_.hello_jitter_max);
      const net::NodeId joiner = packet.src;
      network_->sim().After(jitter, [this, self, joiner, reply] {
        if (finished_) return;
        network_->node(self).Unicast(joiner, net::PacketType::kHello,
                                     EncodeHelloMsg(reply));
        stats_.churn_control_msgs += 1;
      });
      break;
    }
    case net::PacketType::kRelay: {
      if (config_.churn_response == ChurnResponse::kNone) break;
      auto msg = DecodeRelayMsg(packet.payload);
      if (!msg.ok() || msg->partial.size() != function_->arity()) return;
      if (self == net::kBaseStationId) {
        // The relay carries its true color and origin, so the partial is
        // booked against the right tree despite the cross-tree path.
        partial_delivered_[msg->origin] = true;
        bs_acc_.Add(msg->color, msg->partial);
        return;
      }
      const NodeRole role = state.builder->role();
      if (role != NodeRole::kRedAggregator &&
          role != NodeRole::kBlueAggregator) {
        return;  // Only tree members forward relays rootward.
      }
      // Forward the payload unchanged up our own tree: the relay is
      // opaque cargo, never folded into this node's partial.
      network_->node(self).Unicast(state.builder->parent(),
                                   net::PacketType::kRelay, packet.payload);
      stats_.relay_forwards += 1;
      break;
    }
    default:
      break;
  }
}

bool IpdaProtocol::IsDeadNeighbor(const NodeState& state,
                                  net::NodeId id) const {
  return std::find(state.dead_neighbors.begin(), state.dead_neighbors.end(),
                   id) != state.dead_neighbors.end();
}

void IpdaProtocol::OnSendFailure(net::NodeId self, const net::Packet& packet) {
  if (finished_) return;
  NodeState& state = states_[self];
  if (state.excluded) return;
  if (!IsDeadNeighbor(state, packet.dst)) {
    state.dead_neighbors.push_back(packet.dst);
  }
  if (packet.type == net::PacketType::kSlice && config_.retarget_slices) {
    RetargetSlice(self, packet.dst);
  } else if (packet.type == net::PacketType::kAggregate) {
    if (config_.churn_response == ChurnResponse::kRepair) {
      // Incremental repair supersedes plain failover: the node re-parents
      // (keeping the tree consistent for any later traffic), not just
      // re-aims this one partial.
      RepairGraft(self);
    } else if (config_.parent_failover) {
      FailoverReport(self);
    }
  } else if (packet.type == net::PacketType::kRelay) {
    stats_.relays_lost += 1;
  }
}

sim::SimTime IpdaProtocol::BackoffDelay(NodeState& state, uint32_t attempt) {
  const sim::SimTime base = config_.repair_backoff_base;
  sim::SimTime backoff = base;
  for (uint32_t i = 0; i < attempt && backoff < config_.repair_backoff_max;
       ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, config_.repair_backoff_max);
  return backoff + UniformDelay(*state.repair_rng, base - 1);
}

void IpdaProtocol::OnChurnJoin(net::NodeId id) {
  if (finished_ || config_.churn_response == ChurnResponse::kNone) return;
  NodeState& state = states_[id];
  if (state.excluded) return;
  if (state.builder->decided()) return;  // Rejoin: tree state survives.
  // Late joiners must not perturb the decided trees: they enter as
  // leaves on both, never as aggregators (DESIGN.md §12).
  state.builder->SetLeafOnly(true);
  state.join_pending = true;
  if (config_.churn_response == ChurnResponse::kRepair) {
    SendJoinSolicit(id, 0);
  } else {
    OnTopologyChange();  // The rebuild flood will cover the joiner.
  }
}

void IpdaProtocol::SendJoinSolicit(net::NodeId self, uint32_t attempt) {
  if (finished_) return;
  NodeState& state = states_[self];
  if (state.builder->decided()) return;
  if (state.builder->covered()) {
    CompleteJoin(self);
    return;
  }
  if (attempt >= config_.repair_attempt_budget) {
    stats_.repair_budget_exhausted += 1;
    return;
  }
  if (attempt > 0) stats_.backoff_retries += 1;
  network_->node(self).Broadcast(net::PacketType::kJoin,
                                 EncodeJoinSolicitMsg());
  stats_.churn_control_msgs += 1;
  // Re-check after the neighbors' reply jitter plus decide window; the
  // backoff spreads repeat solicits when no one answers.
  const sim::SimTime recheck = config_.hello_jitter_max +
                               config_.decide_window +
                               BackoffDelay(state, attempt);
  network_->sim().After(recheck, [this, self, attempt] {
    SendJoinSolicit(self, attempt + 1);
  });
}

void IpdaProtocol::CompleteJoin(net::NodeId self) {
  NodeState& state = states_[self];
  if (!state.builder->JoinAsLeaf()) return;
  // Contribute if slices can still fold into partials: aggregators absorb
  // until their Phase III slot, so anything before the report phase
  // counts. Later joins are admitted topology-only.
  if (network_->sim().now() < IpdaReportStart(config_)) {
    DoSlicing(self);
  }
}

void IpdaProtocol::RepairGraft(net::NodeId self) {
  NodeState& state = states_[self];
  const NodeRole role = state.builder->role();
  if (role != NodeRole::kRedAggregator &&
      role != NodeRole::kBlueAggregator) {
    return;
  }
  if (state.last_partial.empty()) return;  // Nothing reported yet.
  if (state.repair_attempts >= config_.repair_attempt_budget) {
    stats_.repair_budget_exhausted += 1;
    stats_.orphaned_partials += 1;
    return;
  }
  const uint32_t attempt = state.repair_attempts++;
  if (attempt > 0) stats_.backoff_retries += 1;
  const TreeColor color = role == NodeRole::kRedAggregator
                              ? TreeColor::kRed
                              : TreeColor::kBlue;
  const uint32_t my_hop = state.builder->hop();

  // Preferred graft: a live strictly-lower-hop aggregator of our own
  // color (the base station, hop 0 on both trees, always qualifies when
  // in range) — node-disjointness holds by construction.
  net::NodeId best = net::kBroadcastId;
  uint32_t best_hop = UINT32_MAX;
  for (const NeighborAggregator& cand :
       state.builder->AggregatorNeighborInfos(color)) {
    if (cand.hop >= my_hop || IsDeadNeighbor(state, cand.id)) continue;
    if (cand.hop < best_hop) {
      best = cand.id;
      best_hop = cand.hop;
    }
  }
  const sim::SimTime delay = BackoffDelay(state, attempt);
  stats_.repair_latencies_ms.push_back(sim::ToSeconds(delay) * 1e3);
  if (best != net::kBroadcastId) {
    state.builder->Reparent(best, best_hop);
    grafts_.push_back(GraftRecord{self, color, best, /*degraded=*/false});
    stats_.grafts += 1;
    network_->sim().After(delay, [this, self, best, color] {
      if (finished_) return;
      network_->node(self).Unicast(
          best, net::PacketType::kAggregate,
          EncodeAggregateMsg(color, states_[self].last_partial));
      stats_.reports_rerouted += 1;
      stats_.churn_control_msgs += 1;
    });
    return;
  }

  // Degraded fallback: no disjoint graft exists. Hand the partial to a
  // strictly-lower-hop aggregator of the *other* tree as an opaque
  // relay — the round completes, flagged degraded, and the disjointness
  // the privacy argument rests on is recorded as violated.
  const TreeColor other =
      color == TreeColor::kRed ? TreeColor::kBlue : TreeColor::kRed;
  for (const NeighborAggregator& cand :
       state.builder->AggregatorNeighborInfos(other)) {
    if (cand.hop >= my_hop || IsDeadNeighbor(state, cand.id)) continue;
    if (cand.hop < best_hop) {
      best = cand.id;
      best_hop = cand.hop;
    }
  }
  if (best == net::kBroadcastId) {
    stats_.orphaned_partials += 1;  // Truly stranded.
    return;
  }
  grafts_.push_back(GraftRecord{self, color, best, /*degraded=*/true});
  stats_.disjoint_violations += 1;
  const net::NodeId relay_via = best;
  network_->sim().After(delay, [this, self, relay_via, color] {
    if (finished_) return;
    network_->node(self).Unicast(
        relay_via, net::PacketType::kRelay,
        EncodeRelayMsg(RelayMsg{color, self, states_[self].last_partial}));
    stats_.churn_control_msgs += 1;
  });
}

void IpdaProtocol::OnTopologyChange() {
  if (finished_ || config_.churn_response != ChurnResponse::kRebuild) return;
  if (rebuild_pending_) return;
  const sim::SimTime now = network_->sim().now();
  if (last_rebuild_ >= 0 &&
      now < last_rebuild_ + config_.rebuild_min_interval) {
    rebuild_pending_ = true;
    network_->sim().At(last_rebuild_ + config_.rebuild_min_interval,
                       [this] { DoRebuildFlood(); });
    return;
  }
  DoRebuildFlood();
}

void IpdaProtocol::DoRebuildFlood() {
  if (finished_) return;
  rebuild_pending_ = false;
  last_rebuild_ = network_->sim().now();
  stats_.rebuild_floods += 1;
  // Everyone with a tree position re-advertises it, jittered — the
  // from-scratch baseline the incremental repair path is benchmarked
  // against. Cost scales with the aggregator census per event.
  for (net::NodeId id = 0; id < network_->size(); ++id) {
    NodeState& state = states_[id];
    if (state.excluded) continue;
    HelloMsg hello;
    if (id == net::kBaseStationId) {
      hello = HelloMsg{TreeColor::kBoth, 0, query_};
    } else {
      const NodeRole role = state.builder->role();
      if (role != NodeRole::kRedAggregator &&
          role != NodeRole::kBlueAggregator) {
        continue;
      }
      hello = HelloMsg{role == NodeRole::kRedAggregator ? TreeColor::kRed
                                                        : TreeColor::kBlue,
                       state.builder->hop(), state.received_query};
    }
    const sim::SimTime jitter =
        UniformDelay(*state.repair_rng, config_.hello_jitter_max);
    network_->sim().After(jitter, [this, id, hello] {
      if (finished_) return;
      network_->node(id).Broadcast(net::PacketType::kHello,
                                   EncodeHelloMsg(hello));
      stats_.churn_control_msgs += 1;
    });
  }
}

void IpdaProtocol::RetargetSlice(net::NodeId self, net::NodeId dead_target) {
  NodeState& state = states_[self];
  auto it = std::find_if(
      state.pending_slices.begin(), state.pending_slices.end(),
      [&](const PendingSlice& p) { return p.target == dead_target; });
  if (it == state.pending_slices.end()) return;

  net::NodeId chosen = net::kBroadcastId;
  if (it->attempts < config_.slice_retarget_max) {
    std::vector<net::NodeId> candidates;
    state.builder->AggregatorNeighbors(it->color, candidates);
    for (net::NodeId cand : candidates) {
      if (cand == dead_target || IsDeadNeighbor(state, cand)) continue;
      if (config_.encrypt_slices &&
          !crypto_for(self).keystore().HasLinkKey(cand)) {
        continue;
      }
      chosen = cand;
      break;
    }
  }
  if (chosen == net::kBroadcastId) {
    // Re-aim budget spent or no live keyed aggregator left: the slice —
    // and with it part of this sensor's contribution to one tree — is
    // gone. The tree sums now straddle the §III-D ambiguity: the base
    // station sees a deficit it cannot attribute to failure vs pollution.
    stats_.slices_lost += 1;
    state.pending_slices.erase(it);
    return;
  }
  it->target = chosen;
  it->attempts += 1;
  stats_.slices_retargeted += 1;
  SendSlice(self, chosen, it->color, it->slice);
}

void IpdaProtocol::FailoverReport(net::NodeId self) {
  NodeState& state = states_[self];
  const NodeRole role = state.builder->role();
  if (role != NodeRole::kRedAggregator &&
      role != NodeRole::kBlueAggregator) {
    return;
  }
  if (state.last_partial.empty()) return;  // Nothing reported yet.
  const TreeColor color = role == NodeRole::kRedAggregator
                              ? TreeColor::kRed
                              : TreeColor::kBlue;
  // Any live strictly-lower-hop aggregator of our color keeps the partial
  // moving rootward; lower hops report later (ReportTime), so the re-sent
  // partial still catches the alternate's slot. The base station (hop 0,
  // both colors) is always an admissible last resort when in range.
  const uint32_t my_hop = state.builder->hop();
  net::NodeId best = net::kBroadcastId;
  uint32_t best_hop = UINT32_MAX;
  for (const NeighborAggregator& cand :
       state.builder->AggregatorNeighborInfos(color)) {
    if (cand.hop >= my_hop || IsDeadNeighbor(state, cand.id)) continue;
    if (cand.hop < best_hop) {
      best = cand.id;
      best_hop = cand.hop;
    }
  }
  if (best == net::kBroadcastId) {
    stats_.orphaned_partials += 1;
    return;
  }
  network_->node(self).Unicast(
      best, net::PacketType::kAggregate,
      EncodeAggregateMsg(color, state.last_partial));
  stats_.reports_rerouted += 1;
}

void IpdaProtocol::ScheduleHellos(net::NodeId self, const HelloMsg& hello,
                                  util::Rng& rng) {
  // Initial announcement plus optional repeats (hello_repeats > 0) while
  // Phase I lasts; repeats re-seed stalled flood frontiers.
  for (uint32_t i = 0; i <= config_.hello_repeats; ++i) {
    const sim::SimTime at =
        config_.hello_repeat_interval * static_cast<sim::SimTime>(i) +
        UniformDelay(rng, config_.hello_jitter_max);
    if (network_->sim().now() + at >= IpdaSliceStart(config_)) break;
    network_->sim().After(at, [this, self, hello] {
      network_->node(self).Broadcast(net::PacketType::kHello,
                                     EncodeHelloMsg(hello));
    });
  }
}

void IpdaProtocol::OnJoined(net::NodeId self, const HelloMsg& hello) {
  util::Rng rng = network_->node(self).rng().Fork("ipda-join");
  // Rebroadcast HELLO — with the query we received — so deeper nodes can
  // join this tree and learn what to compute.
  HelloMsg rebroadcast = hello;
  rebroadcast.query = states_[self].received_query;
  ScheduleHellos(self, rebroadcast, rng);
  // Aggregators report in Phase III at their depth slot.
  const ReportSchedule schedule{IpdaReportStart(config_), config_.slot,
                                config_.max_depth, config_.report_jitter_max};
  network_->sim().At(
      JoinReportTime(schedule, hello.hop, network_->sim().now(), rng),
      [this, self] { Report(self); });
}

bool IpdaProtocol::NeighborsKeyed() const {
  return cryptos_ == &owned_cryptos_ &&
         (config_.churn_response != ChurnResponse::kNone ||
          !network_->topology().mutated());
}

void IpdaProtocol::DoSlicing(net::NodeId self) {
  NodeState& state = states_[self];
  TreeBuilder& builder = *state.builder;
  const NodeRole role = builder.role();
  if (role != NodeRole::kLeaf && role != NodeRole::kRedAggregator &&
      role != NodeRole::kBlueAggregator) {
    return;  // Uncovered/undecided: sits out (loss factor (a)).
  }

  builder.AggregatorNeighbors(TreeColor::kRed, scratch_.red);
  builder.AggregatorNeighbors(TreeColor::kBlue, scratch_.blue);
  if (config_.encrypt_slices) {
    // A slice can only go where a link key exists (relevant under EG
    // predistribution, where some links stay unkeyed, and after churn
    // moved a node next to peers it holds no key for).
    const crypto::KeyStore& keys = crypto_for(self).keystore();
    const auto unkeyed = [&keys](net::NodeId id) {
      return !keys.HasLinkKey(id);
    };
    if (NeighborsKeyed()) {
      IPDA_DCHECK(std::none_of(scratch_.red.begin(), scratch_.red.end(),
                               unkeyed) &&
                  std::none_of(scratch_.blue.begin(), scratch_.blue.end(),
                               unkeyed));
    } else {
      std::erase_if(scratch_.red, unkeyed);
      std::erase_if(scratch_.blue, unkeyed);
    }
  }

  util::Rng rng = network_->node(self).rng().Fork("slice-plan");
  if (!PlanSlices(role, config_.slice_count, scratch_.red, scratch_.blue, rng,
                  scratch_.plan)
           .ok()) {
    return;  // Target-starved: sits out (loss factor (b)).
  }

  if (query_.has_value()) {
    // Query-driven mode: compute what the *received* query asks for; a
    // node the dissemination missed sits the round out.
    if (!state.received_query.has_value()) return;
    auto resolved = FunctionForQuery(*state.received_query);
    if (!resolved.ok() || (*resolved)->arity() != function_->arity()) {
      return;
    }
    (*resolved)->ContributionInto(readings_[self], scratch_.contribution);
  } else {
    function_->ContributionInto(readings_[self], scratch_.contribution);
  }
  DeliverSlices(self, TreeColor::kRed, scratch_.plan.red, rng);
  DeliverSlices(self, TreeColor::kBlue, scratch_.plan.blue, rng);
  state.participated = true;
}

void IpdaProtocol::DeliverSlices(net::NodeId self, TreeColor color,
                                 const ColorPlan& plan, util::Rng& rng) {
  std::vector<Vector>& slices = scratch_.slices;
  SliceVector(scratch_.contribution, config_.slice_count, config_.slice_range,
              rng, slices);
  size_t next = 0;
  if (plan.keep_local) {
    // d_ii never touches the air (§III-C-1, Fig. 2).
    if (slice_observer_) slice_observer_(self, self, color, slices[next]);
    AddInto(states_[self].assembled, slices[next++]);
  }
  for (net::NodeId target : plan.targets) {
    IPDA_CHECK_LT(next, slices.size());
    const Vector& slice = slices[next++];
    SendSlice(self, target, color, slice);
    if (config_.retarget_slices) {
      // Remember the slice until the round ends so an ARQ failure can
      // re-aim it at a surviving aggregator.
      states_[self].pending_slices.push_back(
          PendingSlice{target, color, slice, /*attempts=*/0});
    }
  }
  IPDA_CHECK_EQ(next, slices.size());
}

void IpdaProtocol::SendSlice(net::NodeId self, net::NodeId target,
                             TreeColor color, const Vector& slice) {
  if (slice_observer_) slice_observer_(self, target, color, slice);
  util::Bytes wire = EncodeSliceMsg(
      color, slice, config_.encrypt_slices ? crypto::kSealOverheadBytes : 0);
  if (config_.encrypt_slices) {
    const util::Status sealed = crypto_for(self).SealInPlace(target, wire);
    IPDA_CHECK(sealed.ok());  // Targets were filtered for key presence.
  }
  network_->node(self).Unicast(target, net::PacketType::kSlice,
                               std::move(wire));
  stats_.slices_sent += 1;
}

void IpdaProtocol::Report(net::NodeId self) {
  NodeState& state = states_[self];
  const NodeRole role = state.builder->role();
  if (role != NodeRole::kRedAggregator &&
      role != NodeRole::kBlueAggregator) {
    return;
  }
  const TreeColor color = role == NodeRole::kRedAggregator
                              ? TreeColor::kRed
                              : TreeColor::kBlue;
  // Failover and graft repair resend exactly what we sent, so only a round
  // that may resend keeps a copy per node.
  const bool may_resend = config_.parent_failover ||
                          config_.churn_response == ChurnResponse::kRepair;
  Vector& partial = may_resend ? state.last_partial : scratch_.partial;
  partial = state.assembled;
  AddInto(partial, state.children);
  if (pollution_hook_) pollution_hook_(self, color, partial);
  state.reported = true;
  network_->node(self).Unicast(state.builder->parent(),
                               net::PacketType::kAggregate,
                               EncodeAggregateMsg(color, partial));
  stats_.reports_sent += 1;
}

sim::SimTime IpdaProtocol::Duration() const {
  return std::max(IpdaDuration(config_), config_.round_deadline);
}

const IpdaStats& IpdaProtocol::Finish() {
  if (finished_) return stats_;
  finished_ = true;
  size_t red_delivered = 0;
  size_t blue_delivered = 0;
  for (net::NodeId id = 1; id < network_->size(); ++id) {
    const NodeState& state = states_[id];
    if (state.excluded) {
      stats_.excluded += 1;
      continue;
    }
    if (state.builder->covered()) stats_.covered_both += 1;
    if (state.participated) stats_.participants += 1;
    if (state.join_pending && state.builder->decided()) {
      stats_.joins_absorbed += 1;
    }
    switch (state.builder->role()) {
      case NodeRole::kRedAggregator:
        stats_.red_aggregators += 1;
        if (partial_delivered_[id]) red_delivered += 1;
        break;
      case NodeRole::kBlueAggregator:
        stats_.blue_aggregators += 1;
        if (partial_delivered_[id]) blue_delivered += 1;
        break;
      case NodeRole::kLeaf:
        stats_.leaves += 1;
        break;
      default:
        stats_.undecided += 1;
        break;
    }
  }
  stats_.completeness_red =
      stats_.red_aggregators == 0
          ? 1.0
          : static_cast<double>(red_delivered) /
                static_cast<double>(stats_.red_aggregators);
  stats_.completeness_blue =
      stats_.blue_aggregators == 0
          ? 1.0
          : static_cast<double>(blue_delivered) /
                static_cast<double>(stats_.blue_aggregators);
  stats_.degraded = stats_.completeness_red < 1.0 ||
                    stats_.completeness_blue < 1.0 ||
                    stats_.slices_lost > 0 || stats_.orphaned_partials > 0 ||
                    stats_.disjoint_violations > 0 || stats_.relays_lost > 0;
  stats_.decision = bs_acc_.Decide(config_.threshold);
  return stats_;
}

}  // namespace ipda::agg
