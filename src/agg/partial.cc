#include "agg/partial.h"

#include <algorithm>

namespace ipda::agg {

void EncodePartialInto(const Vector& acc, util::ByteWriter& writer) {
  writer.WriteU8(static_cast<uint8_t>(acc.size()));
  for (double v : acc) writer.WriteF64(v);
}

util::Status DecodePartialFrom(util::ByteReader& reader, Vector& out) {
  IPDA_ASSIGN_OR_RETURN(uint8_t count, reader.ReadU8());
  if (reader.remaining() < 8 * size_t{count}) {
    return util::OutOfRangeError("byte reader underflow");
  }
  out.resize(count);
  for (double& v : out) {
    IPDA_ASSIGN_OR_RETURN(v, reader.ReadF64());
  }
  return util::OkStatus();
}

util::Bytes EncodePartial(const Vector& acc, size_t headroom) {
  util::ByteWriter writer(headroom, PartialBytes(acc.size()));
  EncodePartialInto(acc, writer);
  return writer.TakeBytes();
}

util::Result<Vector> DecodePartial(const util::Bytes& payload) {
  util::ByteReader reader(payload);
  Vector acc;
  IPDA_RETURN_IF_ERROR(DecodePartialFrom(reader, acc));
  return acc;
}

sim::SimTime ReportTime(sim::SimTime start, sim::SimTime slot,
                        uint32_t max_depth, uint32_t hop) {
  const uint32_t clamped = std::min(hop, max_depth);
  return start + slot * static_cast<sim::SimTime>(max_depth - clamped);
}

}  // namespace ipda::agg
