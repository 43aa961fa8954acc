// Wire codec for intermediate aggregation results and the level-slotted
// report schedule shared by the TAG tree (agg/tag_tree.h, under TAG,
// SMART, CPDA and KIPDA) and iPDA Phase III.

#ifndef IPDA_AGG_PARTIAL_H_
#define IPDA_AGG_PARTIAL_H_

#include <cstdint>

#include "agg/aggregate_function.h"
#include "sim/time.h"
#include "util/bytes.h"
#include "util/result.h"

namespace ipda::agg {

// Payload: [u8 component-count][f64 x count].
inline constexpr size_t PartialBytes(size_t count) { return 1 + 8 * count; }

// Sized exactly; `headroom` zero bytes in front are left for the sealer's
// nonce (crypto::kSealOverheadBytes when the payload will be sealed).
util::Bytes EncodePartial(const Vector& acc, size_t headroom = 0);
util::Result<Vector> DecodePartial(const util::Bytes& payload);

// In-place variants for composing codecs: append to / consume from an
// existing stream so enclosing messages need neither a temporary body
// buffer nor a tail copy of the payload. DecodePartialFrom overwrites
// `out` (reusing its capacity); on an error its contents are unspecified.
void EncodePartialInto(const Vector& acc, util::ByteWriter& writer);
util::Status DecodePartialFrom(util::ByteReader& reader, Vector& out);

// When a node at tree depth `hop` transmits its partial: deeper nodes go
// first so parents can fold children in before their own slot. Hops beyond
// `max_depth` share the earliest slot.
sim::SimTime ReportTime(sim::SimTime start, sim::SimTime slot,
                        uint32_t max_depth, uint32_t hop);

}  // namespace ipda::agg

#endif  // IPDA_AGG_PARTIAL_H_
