#include "agg/tag/tag_protocol.h"

#include <utility>

#include "agg/partial.h"
#include "net/packet.h"
#include "util/check.h"

namespace ipda::agg {
namespace {

// HELLO trailer: [u8 has_query][query if has_query].
util::Bytes EncodeQueryTrailer(const std::optional<Query>& query) {
  util::ByteWriter writer;
  writer.WriteU8(query.has_value() ? 1 : 0);
  if (query.has_value()) EncodeQueryInto(*query, writer);
  return writer.TakeBytes();
}

util::Result<std::optional<Query>> DecodeQueryTrailer(
    const util::Bytes& trailer) {
  util::ByteReader reader(trailer);
  IPDA_ASSIGN_OR_RETURN(uint8_t has_query, reader.ReadU8());
  if (has_query == 0) return std::optional<Query>();
  IPDA_ASSIGN_OR_RETURN(Query query, DecodeQueryFrom(reader));
  return std::optional<Query>(query);
}

}  // namespace

util::Status ValidateTagConfig(const TagConfig& config) {
  if (config.build_window <= 0 || config.slot <= 0) {
    return util::InvalidArgumentError("TAG windows must be positive");
  }
  if (config.max_depth == 0) {
    return util::InvalidArgumentError("TAG max_depth must be positive");
  }
  return util::OkStatus();
}

TagProtocol::TagProtocol(net::Network* network,
                         const AggregateFunction* function, TagConfig config)
    : network_(network),
      function_(function),
      config_(config),
      tree_(network, this, &stats_.nodes_joined,
            {"tag-hello", "tag-join", config.hello_jitter_max,
             {config.build_window, config.slot, config.max_depth,
              config.report_jitter_max}}) {
  IPDA_CHECK(network != nullptr);
  IPDA_CHECK(function != nullptr);
  IPDA_CHECK(ValidateTagConfig(config).ok());
  readings_.assign(network_->size(), 0.0);
  states_.resize(network_->size());
  for (auto& state : states_) {
    state.acc.assign(function_->arity(), 0.0);
  }
  stats_.collected.assign(function_->arity(), 0.0);
}

void TagProtocol::SetReadings(std::vector<double> readings) {
  IPDA_CHECK_EQ(readings.size(), network_->size());
  readings_ = std::move(readings);
}

void TagProtocol::SetQuery(const Query& query) {
  IPDA_CHECK(!started_);
  auto resolved = FunctionForQuery(query);
  IPDA_CHECK(resolved.ok());
  IPDA_CHECK_EQ((*resolved)->arity(), function_->arity());
  query_ = query;
}

void TagProtocol::Start() {
  IPDA_CHECK(!started_);
  started_ = true;
  states_[net::kBaseStationId].received_query = query_;
  tree_.Start(EncodeQueryTrailer(query_));
}

void TagProtocol::OnPacket(net::NodeId self, const net::Packet& packet) {
  switch (packet.type) {
    case net::PacketType::kAggregate: {
      auto partial = DecodePartial(packet.payload);
      if (!partial.ok() || partial->size() != function_->arity()) return;
      if (self == net::kBaseStationId) {
        AddInto(stats_.collected, *partial);
      } else {
        AddInto(states_[self].acc, *partial);
      }
      break;
    }
    default:
      break;
  }
}

util::Result<util::Bytes> TagProtocol::JoinTrailer(
    net::NodeId self, const util::Bytes& heard) {
  IPDA_ASSIGN_OR_RETURN(std::optional<Query> query,
                        DecodeQueryTrailer(heard));
  if (query.has_value()) states_[self].received_query = query;
  return EncodeQueryTrailer(states_[self].received_query);
}

void TagProtocol::Report(net::NodeId self) {
  NodeState& state = states_[self];
  Vector partial = state.acc;
  if (query_.has_value()) {
    // Query-driven mode: contribute what the received query asks for. A
    // node the dissemination missed still forwards its children's data.
    if (state.received_query.has_value()) {
      auto resolved = FunctionForQuery(*state.received_query);
      if (resolved.ok() && (*resolved)->arity() == function_->arity()) {
        AddInto(partial, (*resolved)->Contribution(readings_[self]));
      }
    }
  } else {
    AddInto(partial, function_->Contribution(readings_[self]));
  }
  stats_.reports_sent += 1;
  network_->node(self).Unicast(tree_.parent(self),
                               net::PacketType::kAggregate,
                               EncodePartial(partial));
}

}  // namespace ipda::agg
