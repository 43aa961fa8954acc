#include "agg/smart/smart_protocol.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "agg/ipda/slicing.h"
#include "agg/link_keys.h"
#include "agg/partial.h"
#include "crypto/pairwise.h"
#include "net/packet.h"
#include "util/check.h"

namespace ipda::agg {
util::Status ValidateSmartConfig(const SmartConfig& config) {
  if (config.slice_count == 0) {
    return util::InvalidArgumentError("slice_count (J) must be >= 1");
  }
  if (!std::isfinite(config.slice_range) || config.slice_range <= 0.0) {
    return util::InvalidArgumentError(
        "slice_range must be finite and positive");
  }
  if (config.build_window <= 0 || config.slice_window <= 0 ||
      config.slot <= 0 || config.max_depth == 0) {
    return util::InvalidArgumentError("SMART windows must be positive");
  }
  return util::OkStatus();
}

SmartProtocol::SmartProtocol(net::Network* network,
                             const AggregateFunction* function,
                             SmartConfig config)
    : network_(network),
      function_(function),
      config_(config),
      tree_(network, this, &stats_.nodes_joined,
            {"smart-start", "smart-join", config.hello_jitter_max,
             {config.build_window + config.slice_window +
                  sim::Milliseconds(200),
              config.slot, config.max_depth, config.report_jitter_max}}) {
  IPDA_CHECK(network != nullptr);
  IPDA_CHECK(function != nullptr);
  IPDA_CHECK(ValidateSmartConfig(config).ok());
  readings_.assign(network_->size(), 0.0);
  states_.resize(network_->size());
  for (auto& state : states_) {
    state.mixed.assign(function_->arity(), 0.0);
    state.children.assign(function_->arity(), 0.0);
  }
  stats_.collected.assign(function_->arity(), 0.0);
}

void SmartProtocol::SetReadings(std::vector<double> readings) {
  IPDA_CHECK_EQ(readings.size(), network_->size());
  readings_ = std::move(readings);
}

void SmartProtocol::SetLinkCrypto(std::vector<crypto::LinkCrypto>* cryptos) {
  IPDA_CHECK(!started_);
  IPDA_CHECK(cryptos != nullptr);
  IPDA_CHECK_EQ(cryptos->size(), network_->size());
  cryptos_ = cryptos;
}

void SmartProtocol::SetSliceObserver(SliceObserver observer) {
  slice_observer_ = std::move(observer);
}

void SmartProtocol::Start() {
  IPDA_CHECK(!started_);
  started_ = true;
  if (config_.encrypt_slices && cryptos_ == nullptr) {
    owned_cryptos_ = ProvisionPairwiseKeys(
        network_->topology(),
        crypto::PairwiseKeyScheme(util::Mix64(
            network_->sim().seed(), 0x534d415254ULL)),  // "SMART".
        crypto::KeyStore::DeriveScope::kProvisionedPeers);
    cryptos_ = &owned_cryptos_;
  }
  tree_.Start();
  // Phase 2 slicing for every sensor at a jittered point.
  for (net::NodeId id = 1; id < network_->size(); ++id) {
    util::Rng rng = network_->node(id).rng().Fork("smart-slice-schedule");
    const sim::SimTime at =
        config_.build_window + UniformDelay(rng, config_.slice_window);
    network_->sim().At(at, [this, id] { DoSlicing(id); });
  }
}

void SmartProtocol::OnPacket(net::NodeId self, const net::Packet& packet) {
  NodeState& state = states_[self];
  switch (packet.type) {
    case net::PacketType::kHello: {
      // The tree has handled it; remember the sender as a slice target.
      if (std::find(state.heard.begin(), state.heard.end(), packet.src) ==
          state.heard.end()) {
        state.heard.push_back(packet.src);
      }
      break;
    }
    case net::PacketType::kSlice: {
      const util::Bytes* plaintext = &packet.payload;
      if (config_.encrypt_slices) {
        if (!crypto_for(self).Open(packet.src, packet.payload, opened_).ok()) {
          return;
        }
        plaintext = &opened_;
      }
      auto slice = DecodePartial(*plaintext);
      if (!slice.ok() || slice->size() != function_->arity()) return;
      if (self == net::kBaseStationId) {
        AddInto(stats_.collected, *slice);
        return;
      }
      AddInto(state.mixed, *slice);
      break;
    }
    case net::PacketType::kAggregate: {
      auto partial = DecodePartial(packet.payload);
      if (!partial.ok() || partial->size() != function_->arity()) return;
      if (self == net::kBaseStationId) {
        AddInto(stats_.collected, *partial);
        return;
      }
      AddInto(state.children, *partial);
      break;
    }
    default:
      break;
  }
}

void SmartProtocol::DoSlicing(net::NodeId self) {
  NodeState& state = states_[self];
  if (!tree_.joined(self)) return;  // Outside the tree: data cannot flow up.

  // Targets: any joined neighbor we heard (keys permitting).
  std::vector<net::NodeId> candidates;
  for (net::NodeId id : state.heard) {
    if (!config_.encrypt_slices ||
        crypto_for(self).keystore().HasLinkKey(id)) {
      candidates.push_back(id);
    }
  }
  const uint32_t j = config_.slice_count;
  if (candidates.size() + 1 < j) return;  // Too few neighbors for J-1.

  util::Rng rng = network_->node(self).rng().Fork("smart-slice");
  const Vector contribution = function_->Contribution(readings_[self]);
  std::vector<Vector> slices;
  SliceVector(contribution, j, config_.slice_range, rng, slices);
  // Keep slices[0]; send the rest to distinct random neighbors.
  if (slice_observer_) slice_observer_(self, self, slices[0]);
  AddInto(state.mixed, slices[0]);
  const auto picks =
      rng.SampleWithoutReplacement(candidates.size(), j - 1);
  for (uint32_t i = 0; i + 1 < j; ++i) {
    const net::NodeId target = candidates[picks[i]];
    if (slice_observer_) slice_observer_(self, target, slices[i + 1]);
    util::Bytes wire = EncodePartial(
        slices[i + 1],
        config_.encrypt_slices ? crypto::kSealOverheadBytes : 0);
    if (config_.encrypt_slices) {
      const util::Status sealed = crypto_for(self).SealInPlace(target, wire);
      IPDA_CHECK(sealed.ok());
    }
    network_->node(self).Unicast(target, net::PacketType::kSlice,
                                 std::move(wire));
    stats_.slices_sent += 1;
  }
  state.participated = true;
  stats_.participants += 1;
}

void SmartProtocol::Report(net::NodeId self) {
  NodeState& state = states_[self];
  Vector partial = state.mixed;
  AddInto(partial, state.children);
  stats_.reports_sent += 1;
  network_->node(self).Unicast(tree_.parent(self),
                               net::PacketType::kAggregate,
                               EncodePartial(partial));
}

}  // namespace ipda::agg
