#include "agg/ipda/messages.h"

#include <iterator>

#include "agg/partial.h"

namespace ipda::agg {

const char* TreeColorName(TreeColor color) {
  switch (color) {
    case TreeColor::kRed:
      return "red";
    case TreeColor::kBlue:
      return "blue";
    case TreeColor::kBoth:
      return "both";
  }
  return "?";
}

const char* NodeRoleName(NodeRole role) {
  switch (role) {
    case NodeRole::kUndecided:
      return "undecided";
    case NodeRole::kLeaf:
      return "leaf";
    case NodeRole::kRedAggregator:
      return "red";
    case NodeRole::kBlueAggregator:
      return "blue";
    case NodeRole::kBaseStation:
      return "base-station";
    case NodeRole::kExcluded:
      return "excluded";
  }
  return "?";
}

bool RoleMatchesColor(NodeRole role, TreeColor color) {
  switch (color) {
    case TreeColor::kRed:
      return role == NodeRole::kRedAggregator ||
             role == NodeRole::kBaseStation;
    case TreeColor::kBlue:
      return role == NodeRole::kBlueAggregator ||
             role == NodeRole::kBaseStation;
    case TreeColor::kBoth:
      return role == NodeRole::kBaseStation;
  }
  return false;
}

namespace {
// Hello body without a query: [u8 color][u16 hop][u8 has-query].
constexpr size_t kHelloFixedBytes = 4;
}  // namespace

util::Bytes EncodeHelloMsg(const HelloMsg& msg) {
  // A piggybacked query grows the buffer past the fixed part.
  util::ByteWriter writer(0, kHelloFixedBytes);
  writer.WriteU8(static_cast<uint8_t>(msg.color));
  writer.WriteU16(static_cast<uint16_t>(msg.hop > 0xffff ? 0xffff : msg.hop));
  writer.WriteU8(msg.query.has_value() ? 1 : 0);
  if (msg.query.has_value()) EncodeQueryInto(*msg.query, writer);
  return writer.TakeBytes();
}

util::Result<HelloMsg> DecodeHelloMsg(const util::Bytes& payload) {
  util::ByteReader reader(payload);
  IPDA_ASSIGN_OR_RETURN(uint8_t color, reader.ReadU8());
  IPDA_ASSIGN_OR_RETURN(uint16_t hop, reader.ReadU16());
  IPDA_ASSIGN_OR_RETURN(uint8_t has_query, reader.ReadU8());
  if (color < 1 || color > 3) {
    return util::InvalidArgumentError("bad HELLO color");
  }
  HelloMsg msg{static_cast<TreeColor>(color), hop, std::nullopt};
  if (has_query != 0) {
    IPDA_ASSIGN_OR_RETURN(Query query, DecodeQueryFrom(reader));
    msg.query = query;
  }
  return msg;
}

namespace {

util::Bytes EncodeColored(TreeColor color, const Vector& v, size_t headroom) {
  util::ByteWriter writer(headroom, 1 + PartialBytes(v.size()));
  writer.WriteU8(static_cast<uint8_t>(color));
  EncodePartialInto(v, writer);
  return writer.TakeBytes();
}

// Red or blue only: both slices and partials feed exactly one tree.
util::Result<TreeColor> DecodeColored(const util::Bytes& payload, Vector& out,
                                      const char* bad_color) {
  util::ByteReader reader(payload);
  IPDA_ASSIGN_OR_RETURN(uint8_t color, reader.ReadU8());
  if (color != 1 && color != 2) {
    return util::InvalidArgumentError(bad_color);
  }
  IPDA_RETURN_IF_ERROR(DecodePartialFrom(reader, out));
  return static_cast<TreeColor>(color);
}

}  // namespace

util::Bytes EncodeSliceMsg(TreeColor color, const Vector& slice,
                           size_t headroom) {
  return EncodeColored(color, slice, headroom);
}

util::Result<TreeColor> DecodeSliceMsg(const util::Bytes& payload,
                                       Vector& out) {
  return DecodeColored(payload, out, "bad SLICE color");
}

util::Bytes EncodeAggregateMsg(TreeColor color, const Vector& partial) {
  return EncodeColored(color, partial, 0);
}

util::Result<TreeColor> DecodeAggregateMsg(const util::Bytes& payload,
                                           Vector& out) {
  return DecodeColored(payload, out, "bad AGGREGATE color");
}

namespace {
// "JN" + version byte; kJoin frames carry no further state.
constexpr uint8_t kJoinMagic[3] = {0x4a, 0x4e, 0x01};
}  // namespace

util::Bytes EncodeJoinSolicitMsg() {
  return util::Bytes(std::begin(kJoinMagic), std::end(kJoinMagic));
}

bool IsJoinSolicitMsg(const util::Bytes& payload) {
  return payload.size() == 3 && payload[0] == kJoinMagic[0] &&
         payload[1] == kJoinMagic[1] && payload[2] == kJoinMagic[2];
}

util::Bytes EncodeRelayMsg(const RelayMsg& msg) {
  util::ByteWriter writer(0, 1 + 4 + PartialBytes(msg.partial.size()));
  writer.WriteU8(static_cast<uint8_t>(msg.color));
  writer.WriteU32(msg.origin);
  EncodePartialInto(msg.partial, writer);
  return writer.TakeBytes();
}

util::Result<RelayMsg> DecodeRelayMsg(const util::Bytes& payload) {
  util::ByteReader reader(payload);
  IPDA_ASSIGN_OR_RETURN(uint8_t color, reader.ReadU8());
  if (color != 1 && color != 2) {
    return util::InvalidArgumentError("bad RELAY color");
  }
  IPDA_ASSIGN_OR_RETURN(uint32_t origin, reader.ReadU32());
  RelayMsg msg{static_cast<TreeColor>(color), origin, {}};
  IPDA_RETURN_IF_ERROR(DecodePartialFrom(reader, msg.partial));
  return msg;
}

}  // namespace ipda::agg
