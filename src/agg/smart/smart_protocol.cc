#include "agg/smart/smart_protocol.h"

#include <algorithm>
#include <utility>

#include "agg/ipda/slicing.h"
#include "agg/link_keys.h"
#include "agg/partial.h"
#include "crypto/pairwise.h"
#include "net/packet.h"
#include "util/check.h"

namespace ipda::agg {
namespace {

util::Bytes EncodeSmartHello(uint32_t level) {
  util::ByteWriter writer;
  writer.WriteU16(static_cast<uint16_t>(std::min(level, 0xffffu)));
  return writer.TakeBytes();
}

util::Result<uint32_t> DecodeSmartHello(const util::Bytes& payload) {
  util::ByteReader reader(payload);
  IPDA_ASSIGN_OR_RETURN(uint16_t level, reader.ReadU16());
  return static_cast<uint32_t>(level);
}

sim::SimTime UniformDelay(util::Rng& rng, sim::SimTime max) {
  return static_cast<sim::SimTime>(
      rng.UniformUint64(static_cast<uint64_t>(max) + 1));
}

}  // namespace

util::Status ValidateSmartConfig(const SmartConfig& config) {
  if (config.slice_count == 0) {
    return util::InvalidArgumentError("slice_count (J) must be >= 1");
  }
  if (config.slice_range <= 0.0) {
    return util::InvalidArgumentError("slice_range must be positive");
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
    : network_(network), function_(function), config_(config) {
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

sim::SimTime SmartProtocol::Duration() const {
  const sim::SimTime report_start =
      config_.build_window + config_.slice_window + sim::Milliseconds(200);
  return report_start +
         config_.slot * static_cast<sim::SimTime>(config_.max_depth + 1) +
         config_.report_jitter_max + sim::Milliseconds(200);
}

void SmartProtocol::Start() {
  IPDA_CHECK(!started_);
  started_ = true;
  if (config_.encrypt_slices && cryptos_ == nullptr) {
    owned_cryptos_ = ProvisionPairwiseKeys(
        network_->topology(),
        crypto::PairwiseKeyScheme(util::Mix64(
            network_->sim().seed(), 0x534d415254ULL)),  // "SMART".
        config_.cipher, crypto::KeyStore::DeriveScope::kProvisionedPeers);
    cryptos_ = &owned_cryptos_;
  }
  for (net::NodeId id = 0; id < network_->size(); ++id) {
    network_->node(id).SetReceiveHandler(
        [this, id](const net::Packet& packet) { OnPacket(id, packet); });
  }
  states_[net::kBaseStationId].joined = true;
  auto& bs = network_->base_station();
  util::Rng bs_rng = bs.rng().Fork("smart-start");
  network_->sim().After(
      UniformDelay(bs_rng, config_.hello_jitter_max), [this] {
        network_->base_station().Broadcast(net::PacketType::kHello,
                                           EncodeSmartHello(0));
      });
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
      auto level = DecodeSmartHello(packet.payload);
      if (!level.ok()) return;
      if (std::find(state.heard.begin(), state.heard.end(), packet.src) ==
          state.heard.end()) {
        state.heard.push_back(packet.src);
      }
      if (self != net::kBaseStationId && !state.joined) {
        Join(self, packet.src, *level + 1);
      }
      break;
    }
    case net::PacketType::kSlice: {
      util::Bytes plaintext;
      if (config_.encrypt_slices) {
        auto opened = crypto_for(self).Open(packet.src, packet.payload);
        if (!opened.ok()) return;
        plaintext = std::move(*opened);
      } else {
        plaintext = packet.payload;
      }
      auto slice = DecodePartial(plaintext);
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

void SmartProtocol::Join(net::NodeId self, net::NodeId parent,
                         uint32_t level) {
  NodeState& state = states_[self];
  state.joined = true;
  state.parent = parent;
  state.level = level;
  stats_.nodes_joined += 1;

  util::Rng rng = network_->node(self).rng().Fork("smart-join");
  network_->sim().After(
      UniformDelay(rng, config_.hello_jitter_max), [this, self, level] {
        network_->node(self).Broadcast(net::PacketType::kHello,
                                       EncodeSmartHello(level));
      });
  const sim::SimTime report_start =
      config_.build_window + config_.slice_window + sim::Milliseconds(200);
  const sim::SimTime slot_time =
      ReportTime(report_start, config_.slot, config_.max_depth, level) +
      UniformDelay(rng, config_.report_jitter_max);
  const sim::SimTime at =
      std::max(slot_time, network_->sim().now() + sim::Milliseconds(1));
  network_->sim().At(at, [this, self] { Report(self); });
}

void SmartProtocol::DoSlicing(net::NodeId self) {
  NodeState& state = states_[self];
  if (!state.joined) return;  // Outside the tree: data cannot flow up.

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
  std::vector<Vector> slices =
      SliceVector(contribution, j, config_.slice_range, rng);
  // Keep slices[0]; send the rest to distinct random neighbors.
  if (slice_observer_) slice_observer_(self, self, slices[0]);
  AddInto(state.mixed, slices[0]);
  const auto picks =
      rng.SampleWithoutReplacement(candidates.size(), j - 1);
  for (uint32_t i = 0; i + 1 < j; ++i) {
    const net::NodeId target = candidates[picks[i]];
    if (slice_observer_) slice_observer_(self, target, slices[i + 1]);
    util::Bytes wire = EncodePartial(slices[i + 1]);
    if (config_.encrypt_slices) {
      auto sealed = crypto_for(self).Seal(target, std::move(wire));
      IPDA_CHECK(sealed.ok());
      wire = std::move(*sealed);
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
  network_->node(self).Unicast(state.parent, net::PacketType::kAggregate,
                               EncodePartial(partial));
}

}  // namespace ipda::agg
