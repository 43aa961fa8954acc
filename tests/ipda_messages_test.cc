#include "agg/ipda/messages.h"

#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/keystore.h"

namespace ipda::agg {
namespace {

TEST(HelloMsg, RoundTrip) {
  for (TreeColor color :
       {TreeColor::kRed, TreeColor::kBlue, TreeColor::kBoth}) {
    for (uint32_t hop : {0u, 1u, 7u, 65535u}) {
      auto decoded =
          DecodeHelloMsg(EncodeHelloMsg({color, hop, std::nullopt}));
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded->color, color);
      EXPECT_EQ(decoded->hop, hop);
    }
  }
}

TEST(HelloMsg, HopSaturatesAt16Bits) {
  auto decoded = DecodeHelloMsg(EncodeHelloMsg({TreeColor::kRed, 1 << 20, std::nullopt}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->hop, 0xffffu);
}

TEST(HelloMsg, RejectsBadColor) {
  util::Bytes wire = EncodeHelloMsg({TreeColor::kRed, 3, std::nullopt});
  wire[0] = 0;
  EXPECT_FALSE(DecodeHelloMsg(wire).ok());
  wire[0] = 4;
  EXPECT_FALSE(DecodeHelloMsg(wire).ok());
}

TEST(HelloMsg, RejectsTruncation) {
  util::Bytes wire = EncodeHelloMsg({TreeColor::kBlue, 3, std::nullopt});
  wire.pop_back();
  EXPECT_FALSE(DecodeHelloMsg(wire).ok());
}

TEST(HelloMsg, QueryPiggybackRoundTrip) {
  HelloMsg msg{TreeColor::kRed, 4, HistogramQuery(0.0, 50.0, 10, 3)};
  auto decoded = DecodeHelloMsg(EncodeHelloMsg(msg));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->query.has_value());
  EXPECT_EQ(*decoded->query, *msg.query);
  EXPECT_EQ(decoded->hop, 4u);
}

TEST(HelloMsg, QueryPiggybackGrowsWire) {
  const size_t bare =
      EncodeHelloMsg({TreeColor::kRed, 1, std::nullopt}).size();
  const size_t with_query =
      EncodeHelloMsg({TreeColor::kRed, 1, CountQuery()}).size();
  EXPECT_EQ(with_query, bare + kQueryWireBytes);
}

TEST(HelloMsg, TruncatedQueryRejected) {
  util::Bytes wire =
      EncodeHelloMsg({TreeColor::kRed, 1, CountQuery()});
  wire.pop_back();
  EXPECT_FALSE(DecodeHelloMsg(wire).ok());
}

TEST(SliceMsg, RoundTrip) {
  const Vector slice{0.25, -1.5};
  Vector decoded;
  auto color = DecodeSliceMsg(EncodeSliceMsg(TreeColor::kBlue, slice),
                              decoded);
  ASSERT_TRUE(color.ok());
  EXPECT_EQ(*color, TreeColor::kBlue);
  EXPECT_EQ(decoded, slice);
}

TEST(SliceMsg, RejectsBothColor) {
  // Slices feed exactly one tree; kBoth is invalid on the wire.
  util::Bytes wire = EncodeSliceMsg(TreeColor::kRed, Vector{1.0});
  wire[0] = 3;
  Vector decoded;
  EXPECT_FALSE(DecodeSliceMsg(wire, decoded).ok());
}

TEST(AggregateMsg, RoundTrip) {
  const Vector partial{100.0, 250.5, 3.0};
  Vector decoded;
  auto color = DecodeAggregateMsg(EncodeAggregateMsg(TreeColor::kRed, partial),
                                  decoded);
  ASSERT_TRUE(color.ok());
  EXPECT_EQ(*color, TreeColor::kRed);
  EXPECT_EQ(decoded, partial);
}

TEST(AggregateMsg, RejectsBadColorAndTruncation) {
  util::Bytes wire = EncodeAggregateMsg(TreeColor::kBlue, Vector{1.0});
  util::Bytes bad_color = wire;
  bad_color[0] = 3;
  Vector decoded;
  EXPECT_FALSE(DecodeAggregateMsg(bad_color, decoded).ok());
  wire.pop_back();
  EXPECT_FALSE(DecodeAggregateMsg(wire, decoded).ok());
}

// The wire layout written out field by field, as the codec did before it
// encoded into one exactly sized buffer: [u8 color][u8 n][f64 x n].
util::Bytes ReferenceColoredBytes(TreeColor color, const Vector& v) {
  util::ByteWriter writer;
  writer.WriteU8(static_cast<uint8_t>(color));
  writer.WriteU8(static_cast<uint8_t>(v.size()));
  for (double x : v) writer.WriteF64(x);
  return writer.TakeBytes();
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t ToBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Arity 1..8 filled with awkward bit patterns: quiet and signaling NaNs
// with payloads, both infinities, -0.0, a subnormal, and plain values.
std::vector<Vector> AwkwardVectors() {
  const double pool[] = {
      FromBits(0x7ff8000000000001ULL),  // Quiet NaN with a payload.
      FromBits(0xfff4000000000abcULL),  // Negative signaling NaN.
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      1.0,
      -123.456,
  };
  std::vector<Vector> out;
  for (size_t arity = 1; arity <= 8; ++arity) {
    Vector v(arity);
    for (size_t i = 0; i < arity; ++i) v[i] = pool[(i + arity) % 8];
    out.push_back(v);
  }
  return out;
}

void ExpectSameBits(const Vector& got, const Vector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(ToBits(got[i]), ToBits(want[i])) << "component " << i;
  }
}

TEST(SliceMsg, EncodersMatchFieldByFieldBytesForEveryArity) {
  for (const Vector& v : AwkwardVectors()) {
    for (TreeColor color : {TreeColor::kRed, TreeColor::kBlue}) {
      const util::Bytes want = ReferenceColoredBytes(color, v);
      const util::Bytes slice = EncodeSliceMsg(color, v);
      const util::Bytes aggregate = EncodeAggregateMsg(color, v);
      EXPECT_EQ(slice, want) << "arity " << v.size();
      EXPECT_EQ(aggregate, want) << "arity " << v.size();
      // Sized exactly: one allocation, no slack.
      EXPECT_EQ(slice.capacity(), slice.size());
      EXPECT_EQ(aggregate.capacity(), aggregate.size());

      // With seal headroom: zeros, then the same bytes.
      const util::Bytes roomy =
          EncodeSliceMsg(color, v, crypto::kSealOverheadBytes);
      ASSERT_EQ(roomy.size(), crypto::kSealOverheadBytes + want.size());
      EXPECT_EQ(roomy.capacity(), roomy.size());
      EXPECT_EQ(util::Bytes(roomy.begin(),
                            roomy.begin() + crypto::kSealOverheadBytes),
                util::Bytes(crypto::kSealOverheadBytes, 0));
      EXPECT_EQ(util::Bytes(roomy.begin() + crypto::kSealOverheadBytes,
                            roomy.end()),
                want);

      Vector decoded;
      auto got = DecodeSliceMsg(slice, decoded);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, color);
      ExpectSameBits(decoded, v);
      got = DecodeAggregateMsg(aggregate, decoded);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, color);
      ExpectSameBits(decoded, v);
    }
  }
}

TEST(SliceMsg, EveryTruncationIsRejected) {
  const util::Bytes wire =
      EncodeSliceMsg(TreeColor::kRed, Vector{1.0, 2.0, 3.0});
  Vector decoded;
  for (size_t len = 0; len < wire.size(); ++len) {
    const util::Bytes cut(wire.begin(), wire.begin() + len);
    EXPECT_FALSE(DecodeSliceMsg(cut, decoded).ok()) << "length " << len;
    EXPECT_FALSE(DecodeAggregateMsg(cut, decoded).ok()) << "length " << len;
  }
}

TEST(SliceMsg, DecodeIntoScratchAfterFailedDecode) {
  // The receiver decodes every slice into one reused vector. Neither a
  // longer earlier slice nor a decode that failed midway may leave
  // components behind.
  Vector scratch;
  const Vector long_slice(8, 5.0);
  ASSERT_TRUE(
      DecodeSliceMsg(EncodeSliceMsg(TreeColor::kRed, long_slice), scratch)
          .ok());
  util::Bytes truncated = EncodeSliceMsg(TreeColor::kBlue, Vector(8, 6.0));
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(DecodeSliceMsg(truncated, scratch).ok());

  const Vector slice{-0.0, 2.5};
  auto color =
      DecodeSliceMsg(EncodeSliceMsg(TreeColor::kBlue, slice), scratch);
  ASSERT_TRUE(color.ok());
  EXPECT_EQ(*color, TreeColor::kBlue);
  ExpectSameBits(scratch, slice);
}

TEST(RoleColor, Matching) {
  EXPECT_TRUE(RoleMatchesColor(NodeRole::kRedAggregator, TreeColor::kRed));
  EXPECT_FALSE(RoleMatchesColor(NodeRole::kRedAggregator, TreeColor::kBlue));
  EXPECT_TRUE(RoleMatchesColor(NodeRole::kBlueAggregator, TreeColor::kBlue));
  EXPECT_FALSE(RoleMatchesColor(NodeRole::kBlueAggregator, TreeColor::kRed));
  // The base station roots both trees.
  EXPECT_TRUE(RoleMatchesColor(NodeRole::kBaseStation, TreeColor::kRed));
  EXPECT_TRUE(RoleMatchesColor(NodeRole::kBaseStation, TreeColor::kBlue));
  EXPECT_TRUE(RoleMatchesColor(NodeRole::kBaseStation, TreeColor::kBoth));
  // Leaves and excluded nodes aggregate nowhere.
  EXPECT_FALSE(RoleMatchesColor(NodeRole::kLeaf, TreeColor::kRed));
  EXPECT_FALSE(RoleMatchesColor(NodeRole::kExcluded, TreeColor::kBlue));
}

TEST(Names, AreHumanReadable) {
  EXPECT_STREQ(TreeColorName(TreeColor::kRed), "red");
  EXPECT_STREQ(TreeColorName(TreeColor::kBlue), "blue");
  EXPECT_STREQ(TreeColorName(TreeColor::kBoth), "both");
  EXPECT_STREQ(NodeRoleName(NodeRole::kLeaf), "leaf");
  EXPECT_STREQ(NodeRoleName(NodeRole::kBaseStation), "base-station");
}

}  // namespace
}  // namespace ipda::agg
