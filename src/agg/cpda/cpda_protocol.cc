#include "agg/cpda/cpda_protocol.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "agg/cpda/interpolation.h"
#include "agg/link_keys.h"
#include "agg/partial.h"
#include "crypto/pairwise.h"
#include "net/packet.h"
#include "util/check.h"

namespace ipda::agg {
namespace {

// Control-frame subtypes (first payload byte of kControl).
enum class CpdaMsg : uint8_t {
  kAnnounce = 1,    // "I am a cluster leader."
  kJoin = 2,        // Member -> leader.
  kRoster = 3,      // Leader -> broadcast member list.
  kShare = 4,       // Member -> member polynomial evaluation (sealed).
  kResponse = 5,    // Member -> leader summed evaluations (sealed).
  kShareRelay = 6,  // Member -> leader: forward to a non-adjacent member.
  kShareFwd = 7,    // Leader -> member: relayed share (still sealed).
};

// Relay envelopes: [u32 peer][sealed share bytes]. On kShareRelay `peer`
// is the destination; on kShareFwd it is the original sender (needed to
// pick the decryption key).
util::Bytes EncodeRelay(net::NodeId peer, const util::Bytes& sealed) {
  util::ByteWriter writer;
  writer.WriteU32(peer);
  util::Bytes out = writer.TakeBytes();
  out.insert(out.end(), sealed.begin(), sealed.end());
  return out;
}

util::Result<std::pair<net::NodeId, util::Bytes>> DecodeRelay(
    const util::Bytes& payload) {
  if (payload.size() < 4) {
    return util::OutOfRangeError("relay envelope too short");
  }
  util::ByteReader reader(payload);
  IPDA_ASSIGN_OR_RETURN(uint32_t peer, reader.ReadU32());
  return std::make_pair(peer,
                        util::Bytes(payload.begin() + 4, payload.end()));
}

util::Bytes Tagged(CpdaMsg msg, const util::Bytes& body = {}) {
  util::Bytes out;
  out.reserve(1 + body.size());
  out.push_back(static_cast<uint8_t>(msg));
  if (!body.empty()) {
    out.insert(out.end(), body.begin(), body.end());
  }
  return out;
}

util::Bytes EncodeRoster(const std::vector<net::NodeId>& members) {
  util::ByteWriter writer;
  writer.WriteU16(static_cast<uint16_t>(members.size()));
  for (net::NodeId id : members) writer.WriteU32(id);
  return writer.TakeBytes();
}

util::Result<std::vector<net::NodeId>> DecodeRoster(
    const util::Bytes& payload) {
  util::ByteReader reader(payload);
  IPDA_ASSIGN_OR_RETURN(uint16_t count, reader.ReadU16());
  std::vector<net::NodeId> members;
  members.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    IPDA_ASSIGN_OR_RETURN(uint32_t id, reader.ReadU32());
    members.push_back(id);
  }
  return members;
}

// Response body: [u16 contributors][partial vector].
util::Bytes EncodeResponse(size_t contributors, const Vector& sums) {
  util::ByteWriter writer;
  writer.WriteU16(static_cast<uint16_t>(contributors));
  util::Bytes out = writer.TakeBytes();
  const util::Bytes body = EncodePartial(sums);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

struct Response {
  size_t contributors;
  Vector sums;
};

util::Result<Response> DecodeResponse(const util::Bytes& payload) {
  if (payload.size() < 2) {
    return util::OutOfRangeError("response too short");
  }
  util::ByteReader reader(payload);
  IPDA_ASSIGN_OR_RETURN(uint16_t contributors, reader.ReadU16());
  util::Bytes rest(payload.begin() + 2, payload.end());
  IPDA_ASSIGN_OR_RETURN(Vector sums, DecodePartial(rest));
  return Response{contributors, std::move(sums)};
}

double PointOf(net::NodeId id) { return static_cast<double>(id); }

}  // namespace

util::Status ValidateCpdaConfig(const CpdaConfig& config) {
  // Written so that NaN fails every test.
  if (!(config.leader_probability > 0.0 &&
        config.leader_probability < 1.0)) {
    return util::InvalidArgumentError("leader_probability must be in (0,1)");
  }
  if (config.poly_degree < 1) {
    return util::InvalidArgumentError("poly_degree must be >= 1");
  }
  if (!std::isfinite(config.coeff_range) || config.coeff_range <= 0.0) {
    return util::InvalidArgumentError(
        "coeff_range must be finite and positive");
  }
  if (config.build_window <= 0 || config.share_window <= 0 ||
      config.slot <= 0 || config.max_depth == 0) {
    return util::InvalidArgumentError("CPDA windows must be positive");
  }
  return util::OkStatus();
}

CpdaProtocol::CpdaProtocol(net::Network* network,
                           const AggregateFunction* function,
                           CpdaConfig config)
    : network_(network),
      function_(function),
      config_(config),
      tree_(network, this, &stats_.nodes_joined,
            {"cpda-start", "cpda-join", config.hello_jitter_max,
             {ReportStart(), config.slot, config.max_depth,
              config.report_jitter_max}}) {
  IPDA_CHECK(network != nullptr);
  IPDA_CHECK(function != nullptr);
  IPDA_CHECK(ValidateCpdaConfig(config).ok());
  readings_.assign(network_->size(), 0.0);
  states_.resize(network_->size());
  for (auto& state : states_) {
    state.share_sum.assign(function_->arity(), 0.0);
    state.pending.assign(function_->arity(), 0.0);
    state.children.assign(function_->arity(), 0.0);
  }
  stats_.collected.assign(function_->arity(), 0.0);
}

void CpdaProtocol::SetReadings(std::vector<double> readings) {
  IPDA_CHECK_EQ(readings.size(), network_->size());
  readings_ = std::move(readings);
}

void CpdaProtocol::SetLinkCrypto(std::vector<crypto::LinkCrypto>* cryptos) {
  IPDA_CHECK(!started_);
  IPDA_CHECK(cryptos != nullptr);
  IPDA_CHECK_EQ(cryptos->size(), network_->size());
  cryptos_ = cryptos;
}

void CpdaProtocol::SetShareObserver(ShareObserver observer) {
  share_observer_ = std::move(observer);
}

bool CpdaProtocol::EnsurePairKey(net::NodeId self, net::NodeId member) {
  if (!config_.encrypt_shares) return true;
  if (crypto_for(self).keystore().HasLinkKey(member)) return true;
  if (!pairwise_scheme_.has_value()) return false;
  // Both co-members derive the same key from the master secret; install
  // it on this side (the peer does the same when it needs it).
  crypto_for(self).keystore().SetLinkKey(
      member, pairwise_scheme_->LinkKey(self, member));
  return true;
}

util::Bytes CpdaProtocol::MaybeSeal(net::NodeId self, net::NodeId to,
                                    const util::Bytes& plaintext) {
  if (!config_.encrypt_shares) return plaintext;
  auto sealed = crypto_for(self).Seal(to, plaintext);
  IPDA_CHECK(sealed.ok());
  return std::move(*sealed);
}

std::optional<util::Bytes> CpdaProtocol::MaybeOpen(
    net::NodeId self, net::NodeId from, const util::Bytes& wire) {
  if (!config_.encrypt_shares) return wire;
  util::Bytes plaintext;
  if (!crypto_for(self).Open(from, wire, plaintext).ok()) return std::nullopt;
  return plaintext;
}

sim::SimTime CpdaProtocol::ReportStart() const {
  return config_.build_window + config_.announce_window +
         config_.join_window + config_.roster_window +
         config_.share_window + config_.response_window +
         sim::Milliseconds(200);
}

void CpdaProtocol::Start() {
  IPDA_CHECK(!started_);
  started_ = true;
  if (config_.encrypt_shares && cryptos_ == nullptr) {
    pairwise_scheme_.emplace(
        util::Mix64(network_->sim().seed(), 0x43504441ULL));  // "CPDA".
    owned_cryptos_ = ProvisionPairwiseKeys(
        network_->topology(), *pairwise_scheme_,
        crypto::KeyStore::DeriveScope::kProvisionedPeers);
    cryptos_ = &owned_cryptos_;
    // Cluster keys for non-neighbour co-members become slots of their
    // own when EnsurePairKey sets them.
  }
  tree_.Start();

  // Cluster phase schedule for every sensor.
  const sim::SimTime announce_at = config_.build_window;
  const sim::SimTime pick_at = announce_at + config_.announce_window;
  const sim::SimTime roster_at = pick_at + config_.join_window;
  const sim::SimTime share_at = roster_at + config_.roster_window;
  const sim::SimTime respond_at = share_at + config_.share_window;
  const sim::SimTime solve_at = respond_at + config_.response_window;
  for (net::NodeId id = 1; id < network_->size(); ++id) {
    util::Rng rng = network_->node(id).rng().Fork("cpda-schedule");
    network_->sim().At(
        announce_at + UniformDelay(rng, config_.announce_window / 2),
        [this, id] { AnnounceOrJoin(id); });
    network_->sim().At(pick_at + UniformDelay(rng, config_.join_window / 2),
                       [this, id] { PickLeader(id); });
    network_->sim().At(
        roster_at + UniformDelay(rng, config_.roster_window / 2),
        [this, id] { SendRoster(id); });
    network_->sim().At(
        share_at + UniformDelay(rng, config_.share_window / 2),
        [this, id] { SendShares(id); });
    network_->sim().At(
        respond_at + UniformDelay(rng, config_.response_window / 2),
        [this, id] { SendResponse(id); });
    network_->sim().At(solve_at, [this, id] { SolveCluster(id); });
  }
}

void CpdaProtocol::OnPacket(net::NodeId self, const net::Packet& packet) {
  switch (packet.type) {
    case net::PacketType::kControl:
      OnControl(self, packet);
      break;
    case net::PacketType::kAggregate: {
      auto partial = DecodePartial(packet.payload);
      if (!partial.ok() || partial->size() != function_->arity()) return;
      if (self == net::kBaseStationId) {
        AddInto(stats_.collected, *partial);
      } else {
        AddInto(states_[self].children, *partial);
      }
      break;
    }
    default:
      break;
  }
}

void CpdaProtocol::OnControl(net::NodeId self, const net::Packet& packet) {
  if (packet.payload.empty() || self == net::kBaseStationId) return;
  NodeState& state = states_[self];
  const auto msg = static_cast<CpdaMsg>(packet.payload[0]);
  const util::Bytes body(packet.payload.begin() + 1, packet.payload.end());
  switch (msg) {
    case CpdaMsg::kAnnounce: {
      if (std::find(state.heard_leaders.begin(), state.heard_leaders.end(),
                    packet.src) == state.heard_leaders.end()) {
        state.heard_leaders.push_back(packet.src);
      }
      break;
    }
    case CpdaMsg::kJoin: {
      if (!state.is_leader) return;
      if (state.members.size() >= config_.max_cluster_size) return;
      if (std::find(state.members.begin(), state.members.end(),
                    packet.src) == state.members.end()) {
        state.members.push_back(packet.src);
      }
      break;
    }
    case CpdaMsg::kRoster: {
      if (state.leader != packet.src) return;
      auto roster = DecodeRoster(body);
      if (!roster.ok()) return;
      // Rejected by a full cluster: fall back to unclustered.
      if (std::find(roster->begin(), roster->end(), self) ==
          roster->end()) {
        state.leader = net::kBroadcastId;
        state.roster.clear();
        return;
      }
      state.roster = std::move(*roster);
      break;
    }
    case CpdaMsg::kShare: {
      auto plaintext = MaybeOpen(self, packet.src, body);
      if (!plaintext.has_value()) return;
      auto share = DecodePartial(*plaintext);
      if (!share.ok() || share->size() != function_->arity()) return;
      AddInto(state.share_sum, *share);
      state.shares_received += 1;
      break;
    }
    case CpdaMsg::kShareRelay: {
      // Leader forwards the (still sealed) share to the intended member.
      if (!state.is_leader) return;
      auto relay = DecodeRelay(body);
      if (!relay.ok()) return;
      const auto [dst, sealed] = *relay;
      if (std::find(state.members.begin(), state.members.end(), dst) ==
          state.members.end()) {
        return;
      }
      network_->node(self).Unicast(
          dst, net::PacketType::kControl,
          Tagged(CpdaMsg::kShareFwd, EncodeRelay(packet.src, sealed)));
      break;
    }
    case CpdaMsg::kShareFwd: {
      auto relay = DecodeRelay(body);
      if (!relay.ok()) return;
      const auto [origin, sealed] = *relay;
      if (!EnsurePairKey(self, origin)) return;
      auto plaintext = MaybeOpen(self, origin, sealed);
      if (!plaintext.has_value()) return;
      auto share = DecodePartial(*plaintext);
      if (!share.ok() || share->size() != function_->arity()) return;
      AddInto(state.share_sum, *share);
      state.shares_received += 1;
      break;
    }
    case CpdaMsg::kResponse: {
      if (!state.is_leader) return;
      auto plaintext = MaybeOpen(self, packet.src, body);
      if (!plaintext.has_value()) return;
      auto response = DecodeResponse(*plaintext);
      if (!response.ok() ||
          response->sums.size() != function_->arity()) {
        return;
      }
      // Only complete responses lie on the summed polynomial.
      if (response->contributors != state.members.size()) return;
      state.responses[packet.src] = std::move(response->sums);
      break;
    }
  }
}

void CpdaProtocol::AnnounceOrJoin(net::NodeId self) {
  NodeState& state = states_[self];
  if (!tree_.joined(self)) return;  // Outside the routing tree.
  util::Rng rng = network_->node(self).rng().Fork("cpda-role");
  if (rng.Bernoulli(config_.leader_probability)) {
    state.is_leader = true;
    state.leader = self;
    state.members.push_back(self);
    network_->node(self).Broadcast(net::PacketType::kControl,
                                   Tagged(CpdaMsg::kAnnounce));
  }
}

void CpdaProtocol::PickLeader(net::NodeId self) {
  NodeState& state = states_[self];
  if (!tree_.joined(self) || state.is_leader) return;
  if (state.heard_leaders.empty()) return;  // Unclustered; fallback later.
  // Uniform random pick among heard leaders (keys permitting) — spreads
  // membership so fewer leaders end up below the privacy threshold.
  std::vector<net::NodeId> usable;
  for (net::NodeId leader : state.heard_leaders) {
    if (!config_.encrypt_shares ||
        crypto_for(self).keystore().HasLinkKey(leader)) {
      usable.push_back(leader);
    }
  }
  if (usable.empty()) return;
  util::Rng rng = network_->node(self).rng().Fork("cpda-pick");
  const net::NodeId leader =
      usable[rng.UniformUint64(usable.size())];
  state.leader = leader;
  network_->node(self).Unicast(leader, net::PacketType::kControl,
                               Tagged(CpdaMsg::kJoin));
}

void CpdaProtocol::SendRoster(net::NodeId self) {
  NodeState& state = states_[self];
  if (!state.is_leader) return;
  std::sort(state.members.begin(), state.members.end());
  const util::Bytes payload =
      Tagged(CpdaMsg::kRoster, EncodeRoster(state.members));
  // Broadcasts carry no ARQ and one lost roster kills the whole cluster
  // (every response would be incomplete), so send it twice.
  network_->node(self).Broadcast(net::PacketType::kControl, payload);
  network_->sim().After(config_.roster_window / 3, [this, self, payload] {
    network_->node(self).Broadcast(net::PacketType::kControl, payload);
  });
  state.roster = state.members;  // The leader is also a member.
}

void CpdaProtocol::SendShares(net::NodeId self) {
  NodeState& state = states_[self];
  if (state.leader == net::kBroadcastId || state.roster.empty()) return;
  // Need deg+1 distinct points, so a cluster smaller than deg+1 cannot be
  // solved; those members fall back at report time.
  if (state.roster.size() < config_.poly_degree + 1) {
    state.roster.clear();
    return;
  }
  util::Rng rng = network_->node(self).rng().Fork("cpda-mask");
  const Vector contribution = function_->Contribution(readings_[self]);
  // One masking polynomial per component.
  std::vector<MaskingPolynomial> polys;
  polys.reserve(contribution.size());
  for (double component : contribution) {
    polys.emplace_back(component, config_.poly_degree,
                       config_.coeff_range, rng);
  }
  for (net::NodeId member : state.roster) {
    Vector evaluation(contribution.size());
    for (size_t c = 0; c < polys.size(); ++c) {
      evaluation[c] = polys[c].Evaluate(PointOf(member));
    }
    if (share_observer_) share_observer_(self, member, evaluation);
    if (member == self) {
      AddInto(state.share_sum, evaluation);
      state.shares_received += 1;
      continue;
    }
    if (!EnsurePairKey(self, member)) {
      continue;  // No derivable key for this co-member: share lost.
    }
    const util::Bytes sealed =
        MaybeSeal(self, member, EncodePartial(evaluation));
    if (network_->topology().AreNeighbors(self, member)) {
      network_->node(self).Unicast(member, net::PacketType::kControl,
                                   Tagged(CpdaMsg::kShare, sealed));
    } else {
      // Co-member beyond radio range (both of us only border the
      // leader): relay the sealed share through the leader.
      network_->node(self).Unicast(
          state.leader, net::PacketType::kControl,
          Tagged(CpdaMsg::kShareRelay, EncodeRelay(member, sealed)));
    }
    stats_.shares_sent += 1;
  }
}

void CpdaProtocol::SendResponse(net::NodeId self) {
  NodeState& state = states_[self];
  if (state.leader == net::kBroadcastId || state.roster.empty()) return;
  if (state.is_leader) {
    // The leader's own point goes straight into its response set.
    if (state.shares_received == state.members.size()) {
      state.responses[self] = state.share_sum;
    }
    return;
  }
  network_->node(self).Unicast(
      state.leader, net::PacketType::kControl,
      Tagged(CpdaMsg::kResponse,
             MaybeSeal(self, state.leader,
                       EncodeResponse(state.shares_received,
                                      state.share_sum))));
  stats_.responses_sent += 1;
}

void CpdaProtocol::SolveCluster(net::NodeId self) {
  NodeState& state = states_[self];
  if (!state.is_leader) return;
  const size_t needed = config_.poly_degree + 1;
  if (state.members.size() < needed ||
      state.responses.size() < needed) {
    state.responses.clear();
    return;  // Cluster lost; counted in Finish().
  }
  // Interpolate each component from deg+1 complete responses (lowest ids
  // first, for determinism).
  std::vector<net::NodeId> responders;
  responders.reserve(state.responses.size());
  for (const auto& [member, sums] : state.responses) {
    responders.push_back(member);
  }
  std::sort(responders.begin(), responders.end());
  std::vector<double> xs;
  std::vector<net::NodeId> used;
  for (net::NodeId member : responders) {
    xs.push_back(PointOf(member));
    used.push_back(member);
    if (xs.size() == needed) break;
  }
  Vector total(function_->arity(), 0.0);
  for (size_t c = 0; c < function_->arity(); ++c) {
    std::vector<double> ys;
    ys.reserve(needed);
    for (net::NodeId member : used) {
      ys.push_back(state.responses.at(member)[c]);
    }
    auto constant = InterpolateConstantTerm(xs, ys);
    if (!constant.ok()) {
      state.responses.clear();
      return;
    }
    total[c] = *constant;
  }
  state.pending = total;
}

void CpdaProtocol::Report(net::NodeId self) {
  NodeState& state = states_[self];
  Vector partial = state.children;
  AddInto(partial, state.pending);
  // Fallback: an unclustered (or unsolvable-cluster) node contributes its
  // raw value so the aggregate stays complete — at a privacy cost that
  // Finish() tallies.
  const bool clustered =
      state.leader != net::kBroadcastId && !state.roster.empty();
  const bool counted = state.is_leader ? !state.responses.empty()
                                       : clustered;
  if (!counted && config_.fallback_unclustered) {
    AddInto(partial, function_->Contribution(readings_[self]));
  }
  network_->node(self).Unicast(tree_.parent(self),
                               net::PacketType::kAggregate,
                               EncodePartial(partial));
}

const CpdaStats& CpdaProtocol::Finish() {
  if (finished_) return stats_;
  finished_ = true;
  for (net::NodeId id = 1; id < network_->size(); ++id) {
    const NodeState& state = states_[id];
    if (state.is_leader) {
      stats_.leaders += 1;
      if (!state.responses.empty()) {
        stats_.clusters_solved += 1;
      } else if (state.members.size() >= config_.poly_degree + 1) {
        stats_.clusters_lost += 1;
      }
    }
    const bool clustered =
        state.leader != net::kBroadcastId && !state.roster.empty() &&
        state.roster.size() >= config_.poly_degree + 1;
    if (clustered) {
      stats_.clustered += 1;
    } else if (tree_.joined(id) && config_.fallback_unclustered) {
      stats_.unprotected += 1;
    }
  }
  return stats_;
}

}  // namespace ipda::agg
