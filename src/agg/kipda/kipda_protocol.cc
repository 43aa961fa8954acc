#include "agg/kipda/kipda_protocol.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "agg/partial.h"
#include "net/packet.h"
#include "util/check.h"

namespace ipda::agg {
namespace {

// Identity element for the elementwise combine.
double Identity(const KipdaConfig& config) {
  return config.maximize ? config.value_floor : config.value_ceiling;
}

}  // namespace

util::Status ValidateKipdaConfig(const KipdaConfig& config) {
  if (config.message_size == 0 || config.message_size > 255) {
    return util::InvalidArgumentError("message_size must be in [1, 255]");
  }
  if (config.real_positions == 0 ||
      config.real_positions > config.message_size) {
    return util::InvalidArgumentError(
        "real_positions must be in [1, message_size]");
  }
  if (!std::isfinite(config.value_floor) ||
      !std::isfinite(config.value_ceiling)) {
    return util::InvalidArgumentError("value range must be finite");
  }
  if (config.value_floor >= config.value_ceiling) {
    return util::InvalidArgumentError("value range must be non-empty");
  }
  if (config.build_window <= 0 || config.slot <= 0 ||
      config.max_depth == 0) {
    return util::InvalidArgumentError("KIPDA windows must be positive");
  }
  return util::OkStatus();
}

std::vector<size_t> KipdaRealPositions(const KipdaConfig& config) {
  util::Rng rng(config.secret_seed);
  auto positions = rng.SampleWithoutReplacement(config.message_size,
                                                config.real_positions);
  std::sort(positions.begin(), positions.end());
  return positions;
}

Vector KipdaEncode(const KipdaConfig& config, double reading,
                   util::Rng& rng) {
  IPDA_DCHECK(reading >= config.value_floor &&
              reading <= config.value_ceiling);
  const auto real = KipdaRealPositions(config);
  std::vector<bool> is_real(config.message_size, false);
  for (size_t pos : real) is_real[pos] = true;

  Vector message(config.message_size);
  for (size_t pos = 0; pos < config.message_size; ++pos) {
    if (is_real[pos]) {
      // Dominated camouflage: can never beat any real reading in the
      // aggregate extreme.
      message[pos] = config.maximize
                         ? rng.UniformDouble(config.value_floor, reading)
                         : rng.UniformDouble(reading,
                                             config.value_ceiling);
    } else {
      // Free camouflage over the whole range — may exceed every real
      // reading, which is what hides the real one.
      message[pos] =
          rng.UniformDouble(config.value_floor, config.value_ceiling);
    }
  }
  // The reading itself lands on a random secret position.
  message[real[rng.UniformUint64(real.size())]] = reading;
  return message;
}

void KipdaCombine(const KipdaConfig& config, Vector& acc,
                  const Vector& in) {
  IPDA_CHECK_EQ(acc.size(), in.size());
  for (size_t i = 0; i < acc.size(); ++i) {
    acc[i] = config.maximize ? std::max(acc[i], in[i])
                             : std::min(acc[i], in[i]);
  }
}

double KipdaDecode(const KipdaConfig& config, const Vector& message) {
  double result = Identity(config);
  for (size_t pos : KipdaRealPositions(config)) {
    result = config.maximize ? std::max(result, message[pos])
                             : std::min(result, message[pos]);
  }
  return result;
}

KipdaProtocol::KipdaProtocol(net::Network* network, KipdaConfig config)
    : network_(network),
      config_(config),
      tree_(network, this, &stats_.nodes_joined,
            {"kipda-start", "kipda-join", config.hello_jitter_max,
             {config.build_window, config.slot, config.max_depth,
              config.report_jitter_max}}) {
  IPDA_CHECK(network != nullptr);
  IPDA_CHECK(ValidateKipdaConfig(config).ok());
  readings_.assign(network_->size(), config.value_floor);
  acc_.assign(network_->size(),
              Vector(config_.message_size, Identity(config_)));
  stats_.collected.assign(config_.message_size, Identity(config_));
}

void KipdaProtocol::SetReadings(std::vector<double> readings) {
  IPDA_CHECK_EQ(readings.size(), network_->size());
  readings_ = std::move(readings);
}

void KipdaProtocol::Start() {
  IPDA_CHECK(!started_);
  started_ = true;
  tree_.Start();
}

void KipdaProtocol::OnPacket(net::NodeId self, const net::Packet& packet) {
  switch (packet.type) {
    case net::PacketType::kAggregate: {
      auto message = DecodePartial(packet.payload);
      if (!message.ok() || message->size() != config_.message_size) {
        return;
      }
      if (self == net::kBaseStationId) {
        KipdaCombine(config_, stats_.collected, *message);
        return;
      }
      KipdaCombine(config_, acc_[self], *message);
      break;
    }
    default:
      break;
  }
}

void KipdaProtocol::Report(net::NodeId self) {
  util::Rng rng = network_->node(self).rng().Fork("kipda-encode");
  Vector message = KipdaEncode(config_, readings_[self], rng);
  KipdaCombine(config_, message, acc_[self]);
  stats_.reports_sent += 1;
  network_->node(self).Unicast(tree_.parent(self),
                               net::PacketType::kAggregate,
                               EncodePartial(message));
}

}  // namespace ipda::agg
