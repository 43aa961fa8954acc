#include "util/bytes.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ipda::util {
namespace {

TEST(Bytes, RoundTripAllWidths) {
  ByteWriter w;
  w.WriteU8(0xab);
  w.WriteU16(0xbeef);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI64(-42);
  w.WriteF64(3.25);

  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadU8(), 0xab);
  EXPECT_EQ(*r.ReadU16(), 0xbeef);
  EXPECT_EQ(*r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_EQ(*r.ReadF64(), 3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.WriteU32(0x01020304);
  const Bytes& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
}

TEST(Bytes, UnderflowReturnsError) {
  ByteWriter w;
  w.WriteU16(7);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.ReadU16().ok());
  auto fail = r.ReadU8();
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), StatusCode::kOutOfRange);
}

TEST(Bytes, PartialReadThenUnderflow) {
  ByteWriter w;
  w.WriteU64(1);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.ReadU32().ok());
  EXPECT_TRUE(r.ReadU16().ok());
  EXPECT_FALSE(r.ReadU32().ok());  // Only 2 bytes left.
}

TEST(Bytes, LengthPrefixedBytesRoundTrip) {
  ByteWriter w;
  w.WriteBytes(Bytes{1, 2, 3, 4, 5});
  w.WriteBytes(Bytes{});
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadBytes(), (Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(*r.ReadBytes(), Bytes{});
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.WriteString("hello sensor");
  w.WriteString("");
  ByteReader r(w.bytes());
  EXPECT_EQ(*r.ReadString(), "hello sensor");
  EXPECT_EQ(*r.ReadString(), "");
}

TEST(Bytes, TruncatedLengthPrefixFails) {
  ByteWriter w;
  w.WriteU32(100);  // Claims 100 bytes follow; none do.
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.ReadBytes().ok());
}

TEST(Bytes, SpecialDoublesRoundTrip) {
  ByteWriter w;
  w.WriteF64(std::numeric_limits<double>::infinity());
  w.WriteF64(-0.0);
  w.WriteF64(std::numeric_limits<double>::denorm_min());
  w.WriteF64(std::numeric_limits<double>::quiet_NaN());
  ByteReader r(w.bytes());
  EXPECT_TRUE(std::isinf(*r.ReadF64()));
  const double neg_zero = *r.ReadF64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(*r.ReadF64(), std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(std::isnan(*r.ReadF64()));
}

TEST(Bytes, RemainingTracksPosition) {
  ByteWriter w;
  w.WriteU64(0);
  w.WriteU16(0);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 10u);
  (void)r.ReadU64();
  EXPECT_EQ(r.remaining(), 2u);
  (void)r.ReadU16();
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, WriterHeadroomThenExactlySizedBody) {
  ByteWriter plain;
  plain.WriteU8(7);
  plain.WriteF64(-0.0);
  ByteWriter roomy(8, 9);
  roomy.WriteU8(7);
  roomy.WriteF64(-0.0);
  const Bytes wire = roomy.TakeBytes();
  ASSERT_EQ(wire.size(), 8u + 9u);
  EXPECT_EQ(wire.capacity(), wire.size());  // One allocation, no growth.
  EXPECT_EQ(Bytes(wire.begin(), wire.begin() + 8), Bytes(8, 0));
  EXPECT_EQ(Bytes(wire.begin() + 8, wire.end()), plain.bytes());
}

TEST(Bytes, TakeBytesMovesBuffer) {
  ByteWriter w;
  w.WriteU8(9);
  Bytes taken = w.TakeBytes();
  EXPECT_EQ(taken.size(), 1u);
}

class BytesFuzzRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BytesFuzzRoundTrip, MixedSequences) {
  // Property: any sequence of writes reads back identically.
  util::Rng rng(GetParam());
  ByteWriter w;
  std::vector<int> kinds;
  std::vector<uint64_t> ints;
  std::vector<double> doubles;
  for (int i = 0; i < 64; ++i) {
    const int kind = static_cast<int>(rng.UniformUint64(3));
    kinds.push_back(kind);
    if (kind == 0) {
      const uint64_t v = rng.NextUint64();
      ints.push_back(v);
      w.WriteU64(v);
    } else if (kind == 1) {
      const double v = rng.UniformDouble(-1e9, 1e9);
      doubles.push_back(v);
      w.WriteF64(v);
    } else {
      const uint64_t v = rng.UniformUint64(256);
      ints.push_back(v);
      w.WriteU8(static_cast<uint8_t>(v));
    }
  }
  ByteReader r(w.bytes());
  size_t ii = 0;
  size_t di = 0;
  for (int kind : kinds) {
    if (kind == 0) {
      EXPECT_EQ(*r.ReadU64(), ints[ii++]);
    } else if (kind == 1) {
      EXPECT_EQ(*r.ReadF64(), doubles[di++]);
    } else {
      EXPECT_EQ(*r.ReadU8(), static_cast<uint8_t>(ints[ii++]));
    }
  }
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesFuzzRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ipda::util
