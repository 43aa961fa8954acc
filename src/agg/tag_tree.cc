#include "agg/tag_tree.h"

#include <algorithm>
#include <utility>

#include "agg/partial.h"
#include "net/packet.h"
#include "util/check.h"

namespace ipda::agg {
namespace {

util::Bytes EncodeHello(uint32_t level, const util::Bytes& trailer) {
  util::ByteWriter writer;
  writer.WriteU16(static_cast<uint16_t>(std::min(level, 0xffffu)));
  util::Bytes out = writer.TakeBytes();
  out.insert(out.end(), trailer.begin(), trailer.end());
  return out;
}

}  // namespace

sim::SimTime UniformDelay(util::Rng& rng, sim::SimTime max) {
  return static_cast<sim::SimTime>(
      rng.UniformUint64(static_cast<uint64_t>(max) + 1));
}

sim::SimTime JoinReportTime(const ReportSchedule& schedule, uint32_t level,
                            sim::SimTime now, util::Rng& rng) {
  const sim::SimTime slot_time =
      ReportTime(schedule.start, schedule.slot, schedule.max_depth, level) +
      UniformDelay(rng, schedule.jitter_max);
  return std::max(slot_time, now + sim::Milliseconds(1));
}

util::Result<util::Bytes> TagTree::Client::JoinTrailer(
    net::NodeId, const util::Bytes&) {
  return util::Bytes();
}

TagTree::TagTree(net::Network* network, Client* client,
                 size_t* nodes_joined, TagTreeConfig config)
    : network_(network),
      client_(client),
      nodes_joined_(nodes_joined),
      config_(config) {
  IPDA_CHECK(network != nullptr);
  IPDA_CHECK(client != nullptr && nodes_joined != nullptr);
  nodes_.resize(network->size());
}

void TagTree::Start(util::Bytes trailer) {
  for (net::NodeId id = 0; id < network_->size(); ++id) {
    network_->node(id).SetReceiveHandler([this, id](const net::Packet& p) {
      if (p.type == net::PacketType::kHello && !OnHello(id, p)) return;
      client_->OnPacket(id, p);
    });
  }
  nodes_[net::kBaseStationId].joined = true;
  util::Rng rng = network_->base_station().rng().Fork(config_.start_label);
  network_->sim().After(
      UniformDelay(rng, config_.hello_jitter_max),
      [this, payload = EncodeHello(0, trailer)]() mutable {
        network_->base_station().Broadcast(net::PacketType::kHello,
                                           std::move(payload));
      });
}

bool TagTree::OnHello(net::NodeId self, const net::Packet& packet) {
  util::ByteReader reader(packet.payload);
  const auto heard_level = reader.ReadU16();
  if (!heard_level.ok()) return false;  // Corrupt frames are dropped.
  if (self == net::kBaseStationId || nodes_[self].joined) return true;
  auto trailer = client_->JoinTrailer(
      self, util::Bytes(packet.payload.begin() + 2, packet.payload.end()));
  if (!trailer.ok()) return false;

  const uint32_t level = *heard_level + 1u;
  nodes_[self] = Node{true, packet.src};
  *nodes_joined_ += 1;
  util::Rng rng = network_->node(self).rng().Fork(config_.join_label);
  network_->sim().After(
      UniformDelay(rng, config_.hello_jitter_max),
      [this, self, payload = EncodeHello(level, *trailer)]() mutable {
        network_->node(self).Broadcast(net::PacketType::kHello,
                                       std::move(payload));
      });
  network_->sim().At(
      JoinReportTime(config_.report, level, network_->sim().now(), rng),
      [this, self] { client_->Report(self); });
  return true;
}

sim::SimTime TagTree::Duration() const {
  const ReportSchedule& report = config_.report;
  return report.start +
         report.slot * static_cast<sim::SimTime>(report.max_depth + 1) +
         report.jitter_max + sim::Milliseconds(200);
}

}  // namespace ipda::agg
