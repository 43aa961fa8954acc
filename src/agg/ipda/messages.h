// Wire formats for the three iPDA phases.
//
// HELLO carries the sender's tree color and hop count (Phase I); SLICE
// carries one encrypted contribution-vector slice (Phase II); AGGREGATE
// carries a colored partial so the base station can attribute it to the
// red or blue tree (Phase III).

#ifndef IPDA_AGG_IPDA_MESSAGES_H_
#define IPDA_AGG_IPDA_MESSAGES_H_

#include <cstdint>
#include <optional>

#include "agg/aggregate_function.h"
#include "agg/query.h"
#include "net/topology.h"
#include "util/bytes.h"
#include "util/result.h"

namespace ipda::agg {

// Aggregation-tree color. The base station broadcasts kBoth: it roots the
// red and the blue tree simultaneously (§III-B).
enum class TreeColor : uint8_t {
  kRed = 1,
  kBlue = 2,
  kBoth = 3,
};

// Role a node assumes in Phase I.
enum class NodeRole : uint8_t {
  kUndecided = 0,
  kLeaf = 1,
  kRedAggregator = 2,
  kBlueAggregator = 3,
  kBaseStation = 4,
  kExcluded = 5,  // Administratively barred (polluter localization rounds).
};

const char* TreeColorName(TreeColor color);
const char* NodeRoleName(NodeRole role);

// True if `role` aggregates on the tree of `color`.
bool RoleMatchesColor(NodeRole role, TreeColor color);

struct HelloMsg {
  TreeColor color = TreeColor::kBoth;
  uint32_t hop = 0;
  // Piggybacked query spec (§III-A): dissemination and tree construction
  // share the flood, exactly as in TAG.
  std::optional<Query> query;
};

util::Bytes EncodeHelloMsg(const HelloMsg& msg);
util::Result<HelloMsg> DecodeHelloMsg(const util::Bytes& payload);

// SLICE and AGGREGATE bodies: [u8 color][partial codec (agg/partial.h)].
// A slice's color says which tree it feeds — receivers of a single color
// could infer it, but the base station aggregates on both trees; an
// aggregate's color lets the base station attribute the partial.
//
// Encoders size the buffer exactly. EncodeSliceMsg leaves `headroom` zero
// bytes in front for LinkCrypto::Seal's nonce (crypto::kSealOverheadBytes
// when the slice is sealed), so the buffer handed to the MAC is the only
// allocation a slice costs. Decoders write the vector into the caller's
// `out`, reusing its capacity, and return the color.
util::Bytes EncodeSliceMsg(TreeColor color, const Vector& slice,
                           size_t headroom = 0);
util::Result<TreeColor> DecodeSliceMsg(const util::Bytes& payload,
                                       Vector& out);

util::Bytes EncodeAggregateMsg(TreeColor color, const Vector& partial);
util::Result<TreeColor> DecodeAggregateMsg(const util::Bytes& payload,
                                           Vector& out);

// Late-join solicitation (net::PacketType::kJoin): a node that missed the
// Phase I flood asks decided neighbors to re-advertise their tree
// position. Body is a fixed magic so a truncated frame is detectable.
util::Bytes EncodeJoinSolicitMsg();
bool IsJoinSolicitMsg(const util::Bytes& payload);

// Degraded cross-tree relay (net::PacketType::kRelay): when a repair
// cannot find a node-disjoint parent, the orphaned partial travels up the
// *other* tree tagged with its true color and origin, so the base station
// still books it against the right tree (flagged degraded; DESIGN.md §12).
struct RelayMsg {
  TreeColor color = TreeColor::kRed;
  net::NodeId origin = 0;
  Vector partial;
};

util::Bytes EncodeRelayMsg(const RelayMsg& msg);
util::Result<RelayMsg> DecodeRelayMsg(const util::Bytes& payload);

}  // namespace ipda::agg

#endif  // IPDA_AGG_IPDA_MESSAGES_H_
