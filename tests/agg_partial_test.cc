#include "agg/partial.h"

#include <gtest/gtest.h>

namespace ipda::agg {
namespace {

TEST(Partial, RoundTrip) {
  const Vector acc{1.5, -2.25, 1e9};
  auto decoded = DecodePartial(EncodePartial(acc));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, acc);
}

TEST(Partial, EmptyVector) {
  auto decoded = DecodePartial(EncodePartial(Vector{}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(Partial, WireSizeIsOnePlusEightPerComponent) {
  EXPECT_EQ(EncodePartial(Vector{1.0}).size(), 9u);
  EXPECT_EQ(EncodePartial(Vector{1.0, 2.0, 3.0}).size(), 25u);
}

TEST(Partial, TruncatedPayloadFails) {
  util::Bytes wire = EncodePartial(Vector{1.0, 2.0});
  wire.pop_back();
  EXPECT_FALSE(DecodePartial(wire).ok());
}

TEST(Partial, EmptyPayloadFails) {
  EXPECT_FALSE(DecodePartial(util::Bytes{}).ok());
}

TEST(Partial, IntoAppendsAfterExistingStreamContent) {
  // The composable variant writes into a caller-owned stream, so an
  // enclosing message needs no temporary body buffer.
  const Vector acc{3.5, -0.25};
  util::ByteWriter writer;
  writer.WriteU8(0xA7);  // Pretend header written by the enclosing codec.
  EncodePartialInto(acc, writer);
  writer.WriteU8(0x5A);  // And a trailer after the payload.
  const util::Bytes wire = writer.bytes();
  ASSERT_EQ(wire.size(), 1u + 17u + 1u);
  EXPECT_EQ(wire.front(), 0xA7);
  EXPECT_EQ(wire.back(), 0x5A);

  util::ByteReader reader(wire);
  ASSERT_TRUE(reader.ReadU8().ok());
  Vector decoded;
  ASSERT_TRUE(DecodePartialFrom(reader, decoded).ok());
  EXPECT_EQ(decoded, acc);
  // Positional: the reader stops exactly at the trailer.
  auto trailer = reader.ReadU8();
  ASSERT_TRUE(trailer.ok());
  EXPECT_EQ(*trailer, 0x5A);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Partial, IntoMatchesStandaloneEncodingByteForByte) {
  const Vector acc{1.0, 2.0, -7.125};
  util::ByteWriter writer;
  EncodePartialInto(acc, writer);
  EXPECT_EQ(writer.bytes(), EncodePartial(acc));
}

TEST(Partial, FromFailsOnTruncationWithoutConsumingPastEnd) {
  util::Bytes wire = EncodePartial(Vector{1.0, 2.0});
  wire.pop_back();
  util::ByteReader reader(wire);
  Vector decoded;
  EXPECT_FALSE(DecodePartialFrom(reader, decoded).ok());
}

TEST(Partial, HeadroomPrecedesTheEncoding) {
  const Vector acc{4.0, -0.5};
  const util::Bytes bare = EncodePartial(acc);
  const util::Bytes roomy = EncodePartial(acc, 8);
  ASSERT_EQ(roomy.size(), 8 + bare.size());
  EXPECT_EQ(util::Bytes(roomy.begin(), roomy.begin() + 8), util::Bytes(8, 0));
  EXPECT_EQ(util::Bytes(roomy.begin() + 8, roomy.end()), bare);
  EXPECT_EQ(bare.size(), PartialBytes(acc.size()));
}

TEST(Partial, FromOverwritesReusedStorage) {
  // A longer vector left in the caller's storage, and a failed decode
  // that stopped midway, must not leak into the next decode.
  Vector scratch{9.0, 9.0, 9.0, 9.0, 9.0};
  util::Bytes truncated = EncodePartial(Vector{7.0, 7.0, 7.0});
  truncated.pop_back();
  util::ByteReader bad(truncated);
  EXPECT_FALSE(DecodePartialFrom(bad, scratch).ok());
  const util::Bytes wire = EncodePartial(Vector{1.0, -2.0});
  util::ByteReader good(wire);
  ASSERT_TRUE(DecodePartialFrom(good, scratch).ok());
  EXPECT_EQ(scratch, (Vector{1.0, -2.0}));
}

TEST(ReportTime, DeeperHopsReportEarlier) {
  const sim::SimTime start = sim::Seconds(2);
  const sim::SimTime slot = sim::Milliseconds(100);
  const sim::SimTime deep = ReportTime(start, slot, 24, 10);
  const sim::SimTime shallow = ReportTime(start, slot, 24, 2);
  EXPECT_LT(deep, shallow);
}

TEST(ReportTime, HopOneIsLatestSensorSlot) {
  const sim::SimTime start = sim::Seconds(0);
  const sim::SimTime slot = sim::Milliseconds(100);
  EXPECT_EQ(ReportTime(start, slot, 24, 1), slot * 23);
  EXPECT_EQ(ReportTime(start, slot, 24, 24), 0);
}

TEST(ReportTime, HopsBeyondMaxDepthClampToEarliestSlot) {
  const sim::SimTime start = sim::Seconds(0);
  const sim::SimTime slot = sim::Milliseconds(100);
  EXPECT_EQ(ReportTime(start, slot, 8, 8), ReportTime(start, slot, 8, 100));
}

TEST(ReportTime, AdjacentHopsAreOneSlotApart) {
  const sim::SimTime start = sim::Seconds(1);
  const sim::SimTime slot = sim::Milliseconds(120);
  for (uint32_t hop = 2; hop <= 10; ++hop) {
    EXPECT_EQ(ReportTime(start, slot, 24, hop - 1) -
                  ReportTime(start, slot, 24, hop),
              slot);
  }
}

}  // namespace
}  // namespace ipda::agg
