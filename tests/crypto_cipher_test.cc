#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "crypto/cipher.h"
#include "crypto/ctr.h"
#include "crypto/key.h"
#include "crypto/keystore.h"
#include "crypto/xtea.h"
#include "link_crypto_testing.h"
#include "util/random.h"

namespace ipda::crypto {
namespace {

TEST(Key128, FromSeedDeterministic) {
  EXPECT_EQ(Key128::FromSeed(42), Key128::FromSeed(42));
  EXPECT_FALSE(Key128::FromSeed(42) == Key128::FromSeed(43));
}

TEST(Key128, RandomKeysDiffer) {
  util::Rng rng(1);
  EXPECT_FALSE(Key128::Random(rng) == Key128::Random(rng));
}

TEST(Key128, HexIs32Chars) {
  EXPECT_EQ(Key128::FromSeed(7).ToHex().size(), 32u);
}

TEST(Xtea, EncryptDecryptRoundTrip) {
  const Key128 key = Key128::FromSeed(99);
  util::Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t block = rng.NextUint64();
    EXPECT_EQ(XteaDecryptBlock(key, XteaEncryptBlock(key, block)), block);
  }
}

TEST(Xtea, KnownTestVector) {
  // Published XTEA vector: key 00010203 04050607 08090a0b 0c0d0e0f,
  // plaintext 41424344 45464748 -> ciphertext 497df3d0 72612cb5.
  // Our block packs v0 = low 32 bits, v1 = high 32 bits.
  Key128 key;
  key.words = {0x00010203, 0x04050607, 0x08090a0b, 0x0c0d0e0f};
  const uint64_t plaintext =
      0x41424344ULL | (0x45464748ULL << 32);  // v0=0x41424344, v1=...
  const uint64_t ciphertext = XteaEncryptBlock(key, plaintext);
  const uint32_t c0 = static_cast<uint32_t>(ciphertext);
  const uint32_t c1 = static_cast<uint32_t>(ciphertext >> 32);
  EXPECT_EQ(c0, 0x497df3d0u);
  EXPECT_EQ(c1, 0x72612cb5u);
}

TEST(Xtea, WrongKeyDoesNotDecrypt) {
  const Key128 a = Key128::FromSeed(1);
  const Key128 b = Key128::FromSeed(2);
  const uint64_t block = 0x1122334455667788ULL;
  EXPECT_NE(XteaDecryptBlock(b, XteaEncryptBlock(a, block)), block);
}

TEST(Xtea, AvalancheOnPlaintextBitFlip) {
  const Key128 key = Key128::FromSeed(5);
  const uint64_t c1 = XteaEncryptBlock(key, 0);
  const uint64_t c2 = XteaEncryptBlock(key, 1);
  const int flipped = __builtin_popcountll(c1 ^ c2);
  EXPECT_GT(flipped, 16);  // Roughly half of 64 bits should flip.
  EXPECT_LT(flipped, 48);
}

// The textbook per-block XTEA-CTR loop: one block cipher call per 8
// bytes, block input nonce + block index, keystream bytes little-endian.
// It is the referee the chunked CtrCrypt path must match byte for byte.
void ScalarXteaCtr(const Key128& key, uint64_t nonce, util::Bytes& data) {
  uint64_t counter = 0;
  size_t offset = 0;
  while (offset < data.size()) {
    const uint64_t keystream = XteaEncryptBlock(key, nonce + counter);
    for (int i = 0; i < 8 && offset < data.size(); ++i, ++offset) {
      data[offset] ^= static_cast<uint8_t>(keystream >> (8 * i));
    }
    ++counter;
  }
}

// The production path: chunked CTR over a precomputed schedule.
void XteaCtr(const Key128& key, uint64_t nonce, util::Bytes& data) {
  CtrCrypt(XteaSchedule(key), nonce, data);
}

util::Bytes XteaCtrCopy(const Key128& key, uint64_t nonce,
                        util::Bytes data) {
  XteaCtr(key, nonce, data);
  return data;
}

TEST(Ctr, RoundTripVariousLengths) {
  const Key128 key = Key128::FromSeed(11);
  util::Rng rng(3);
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 16u, 63u, 64u, 65u, 1000u}) {
    util::Bytes data(len);
    for (auto& b : data) b = static_cast<uint8_t>(rng.UniformUint64(256));
    const util::Bytes original = data;
    XteaCtr(key, 777, data);
    if (len > 0) {
      EXPECT_NE(data, original) << "len=" << len;
    }
    XteaCtr(key, 777, data);  // Symmetric.
    EXPECT_EQ(data, original) << "len=" << len;
  }
}

TEST(Ctr, DifferentNoncesGiveDifferentCiphertexts) {
  const Key128 key = Key128::FromSeed(12);
  const util::Bytes plaintext(32, 0x00);
  EXPECT_NE(XteaCtrCopy(key, 1, plaintext), XteaCtrCopy(key, 2, plaintext));
}

TEST(Ctr, DifferentKeysGiveDifferentCiphertexts) {
  const util::Bytes plaintext(32, 0x00);
  EXPECT_NE(XteaCtrCopy(Key128::FromSeed(1), 5, plaintext),
            XteaCtrCopy(Key128::FromSeed(2), 5, plaintext));
}

TEST(Ctr, KeystreamBytesLookUniform) {
  // Encrypting zeros exposes the keystream; its byte histogram should be
  // roughly flat.
  const Key128 key = Key128::FromSeed(13);
  util::Bytes zeros(256 * 64, 0x00);
  XteaCtr(key, 999, zeros);
  std::vector<int> counts(256, 0);
  for (uint8_t b : zeros) ++counts[b];
  const double expected = static_cast<double>(zeros.size()) / 256.0;
  for (int c : counts) {
    EXPECT_GT(c, expected * 0.5);
    EXPECT_LT(c, expected * 1.5);
  }
}

TEST(Seal, InPlaceMatchesCopyingFormOnTheWire) {
  // Two nodes with identical key material and counter state: one seals a
  // bare plaintext by copy, the other seals in place behind the headroom
  // an encoder leaves. Wire bytes must match exactly, or the in-place
  // slice path would change recorded traffic.
  const Key128 key = Key128::FromSeed(77);
  LinkCrypto by_copy(3), in_place(3);
  by_copy.keystore().SetLinkKey(9, key);
  in_place.keystore().SetLinkKey(9, key);
  util::Rng rng(7);
  for (int round = 0; round < 8; ++round) {
    util::Bytes plaintext(5 + 13 * round);
    for (auto& b : plaintext) {
      b = static_cast<uint8_t>(rng.UniformUint64(256));
    }
    auto copied = by_copy.Seal(9, plaintext);
    ASSERT_TRUE(copied.ok());
    util::Bytes wire(kSealOverheadBytes + plaintext.size());
    std::copy(plaintext.begin(), plaintext.end(),
              wire.begin() + kSealOverheadBytes);
    ASSERT_TRUE(in_place.SealInPlace(9, wire).ok());
    EXPECT_EQ(*copied, wire) << "round " << round;
    EXPECT_EQ(wire.size(), plaintext.size() + kSealOverheadBytes);

    // And the receiver recovers the plaintext.
    LinkCrypto receiver(9);
    receiver.keystore().SetLinkKey(3, key);
    util::Bytes opened;
    ASSERT_TRUE(receiver.Open(3, wire, opened).ok());
    EXPECT_EQ(opened, plaintext);
  }
}

TEST(Seal, InPlaceStillAdvancesTheNonceCounter) {
  const Key128 key = Key128::FromSeed(78);
  LinkCrypto crypto(1);
  crypto.keystore().SetLinkKey(2, key);
  util::Bytes first(kSealOverheadBytes + 16, 0x5C);
  util::Bytes second = first;
  ASSERT_TRUE(crypto.SealInPlace(2, first).ok());
  ASSERT_TRUE(crypto.SealInPlace(2, second).ok());
  // Same plaintext, fresh nonce: everything after the prefix differs too.
  EXPECT_NE(first, second);
  EXPECT_NE(util::Bytes(first.begin(), first.begin() + kSealOverheadBytes),
            util::Bytes(second.begin(), second.begin() + kSealOverheadBytes));
}

TEST(Seal, InPlaceFailureLeavesWireUntouched) {
  LinkCrypto crypto(1);
  util::Bytes wire(kSealOverheadBytes + 4, 0x33);
  const util::Bytes before = wire;
  EXPECT_EQ(crypto.SealInPlace(2, wire).code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(wire, before);
}

TEST(Xtea, ScheduleMatchesKeyPaths) {
  // The precomputed round-key schedule must reproduce the on-the-fly key
  // derivation bit for bit, in both directions.
  const Key128 key = Key128::FromSeed(321);
  const XteaSchedule sched(key);
  util::Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t block = rng.NextUint64();
    const uint64_t c = XteaEncryptBlock(key, block);
    EXPECT_EQ(XteaEncryptBlock(sched, block), c);
    EXPECT_EQ(XteaDecryptBlock(sched, c), block);
  }
}

TEST(Xtea, BatchedBlocksMatchScalarLoop) {
  // The interleaved multi-block path (including its tail lanes for
  // remainders mod 4) must equal block-at-a-time encryption.
  const Key128 key = Key128::FromSeed(322);
  const XteaSchedule sched(key);
  util::Rng rng(9);
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 31u, 32u, 33u, 100u}) {
    std::vector<uint64_t> in(n), batched(n);
    for (auto& b : in) b = rng.NextUint64();
    XteaEncryptBlocks(sched, in.data(), batched.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batched[i], XteaEncryptBlock(key, in[i])) << "n=" << n
                                                          << " i=" << i;
    }
  }
}

TEST(Xtea, InterleavedTailLanesMatchPerBlockEncryption) {
  // Every remainder of the 4-wide body (1, 2 and 3 blocks, the 2-block
  // case being every slice's seal) runs as its own lane group; each must
  // equal per-block XteaEncryptBlock, under random schedules and in place.
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const XteaSchedule sched(Key128::Random(rng));
    for (size_t n = 1; n <= 9; ++n) {
      std::vector<uint64_t> in(n), out(n);
      for (auto& b : in) b = rng.NextUint64();
      XteaEncryptBlocks(sched, in.data(), out.data(), n);
      std::vector<uint64_t> aliased = in;
      XteaEncryptBlocks(sched, aliased.data(), aliased.data(), n);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t want = XteaEncryptBlock(sched, in[i]);
        EXPECT_EQ(out[i], want) << "trial " << trial << " n=" << n
                                << " i=" << i;
        EXPECT_EQ(aliased[i], want) << "trial " << trial << " n=" << n
                                    << " i=" << i;
      }
    }
  }
}

TEST(Ctr, BatchedPathMatchesScalarPathAllLengths) {
  // The chunked keystream path (u64 XOR + per-byte tail) must produce
  // exactly the bytes of the per-block loop for every length, especially
  // non-block-aligned tails and chunk boundaries.
  const Key128 key = Key128::FromSeed(323);
  util::Rng rng(10);
  for (size_t len = 0; len <= 300; ++len) {
    util::Bytes data(len);
    for (auto& b : data) b = static_cast<uint8_t>(rng.UniformUint64(256));
    util::Bytes scalar = data;
    util::Bytes batched = std::move(data);
    ScalarXteaCtr(key, 42424242, scalar);
    XteaCtr(key, 42424242, batched);
    EXPECT_EQ(batched, scalar) << "len=" << len;
  }
}

TEST(Ctr, BatchedPathMatchesScalarAtRandomLengths) {
  // Random lengths past the 512-byte chunk size, random nonces: catches
  // counter carry-over mistakes between chunks.
  const Key128 key = Key128::FromSeed(324);
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t len = static_cast<size_t>(rng.UniformUint64(4096));
    const uint64_t nonce = rng.NextUint64();
    util::Bytes scalar(len);
    for (auto& b : scalar) b = static_cast<uint8_t>(rng.UniformUint64(256));
    util::Bytes batched = scalar;
    ScalarXteaCtr(key, nonce, scalar);
    XteaCtr(key, nonce, batched);
    EXPECT_EQ(batched, scalar) << "trial=" << trial << " len=" << len;
  }
}

TEST(Ctr, KeystreamChunkingIsIndependent) {
  // Keystream block i depends only on (key, nonce, i), so a message's
  // keystream is a prefix of any longer message's under the same nonce,
  // however CtrCrypt's 512-byte chunks split the two. Lengths straddle
  // the first and second chunk boundaries.
  const Key128 key = Key128::FromSeed(5);
  constexpr size_t kLongest = 1100;
  util::Bytes longest(kLongest, 0x00);
  XteaCtr(key, 99, longest);
  for (size_t base : {size_t{512}, size_t{1024}}) {
    for (size_t len = base - 9; len <= base + 9; ++len) {
      util::Bytes zeros(len, 0x00);
      XteaCtr(key, 99, zeros);
      EXPECT_TRUE(std::equal(zeros.begin(), zeros.end(), longest.begin()))
          << "len=" << len;
    }
  }
}

// The CipherBackend cases drive the XTEA-only compatibility names of
// crypto/cipher.h (GetCipherBackend, CipherSchedule, the four-argument
// CtrCrypt, IpdaConfig::cipher) that roundbench still spells: each must
// reach the one XTEA-CTR path with the same bytes.

TEST(CipherBackend, CtrCryptMatchesReferenceAllLengths) {
  const CipherBackend& backend = GetCipherBackend(CipherKind::kXtea);
  const Key128 key = Key128::FromSeed(77);
  CipherSchedule sched;
  backend.build(key, sched);
  for (size_t len = 0; len <= 300; ++len) {
    util::Bytes chunked(len);
    for (size_t i = 0; i < len; ++i) {
      chunked[i] = static_cast<uint8_t>(i * 31 + 7);
    }
    util::Bytes ref = chunked;
    CtrCrypt(backend, sched, /*nonce=*/len, chunked.data(), chunked.size());
    ScalarXteaCtr(key, /*nonce=*/len, ref);
    EXPECT_EQ(chunked, ref) << "len=" << len;
    if (chunked != ref) break;
  }
}

TEST(CipherBackend, CtrCryptMatchesReferenceRandomLengthsAndNonces) {
  util::Rng rng(0x17E);
  const CipherBackend& backend = GetCipherBackend(CipherKind::kXtea);
  const Key128 key = Key128::Random(rng);
  CipherSchedule sched;
  backend.build(key, sched);
  for (int trial = 0; trial < 24; ++trial) {
    const size_t len = rng.NextUint64() % 2048;
    const uint64_t nonce = rng.NextUint64();
    util::Bytes chunked(len);
    for (auto& b : chunked) b = static_cast<uint8_t>(rng.NextUint64());
    util::Bytes ref = chunked;
    CtrCrypt(backend, sched, nonce, chunked.data(), chunked.size());
    ScalarXteaCtr(key, nonce, ref);
    ASSERT_EQ(chunked, ref) << "len=" << len;
  }
}

TEST(CipherBackend, XteaBackendMatchesLegacyPaths) {
  // The backend's CTR bytes must equal XTEA over the counter blocks
  // nonce + i, through both the batched XteaSchedule primitive and the
  // scalar block function — the equivalence the committed golden traces
  // rest on.
  const Key128 key = Key128::FromSeed(1234);
  const CipherBackend& backend = GetCipherBackend(CipherKind::kXtea);
  CipherSchedule generic;
  backend.build(key, generic);
  const XteaSchedule legacy(key);
  constexpr uint64_t kNonce = 7;
  for (size_t len : {size_t{0}, size_t{1}, size_t{8}, size_t{26},
                     size_t{255}}) {
    util::Bytes plain(len);
    for (size_t i = 0; i < len; ++i) plain[i] = static_cast<uint8_t>(0x40 + i);
    util::Bytes sealed = plain;
    CtrCrypt(backend, generic, kNonce, sealed.data(), sealed.size());
    const size_t blocks = (len + 7) / 8;
    std::vector<uint64_t> counters(blocks), keystream(blocks);
    for (size_t i = 0; i < blocks; ++i) counters[i] = kNonce + i;
    XteaEncryptBlocks(legacy, counters.data(), keystream.data(), blocks);
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(keystream[i / 8], XteaEncryptBlock(key, counters[i / 8]));
      const auto ks_byte =
          static_cast<uint8_t>(keystream[i / 8] >> (8 * (i % 8)));
      EXPECT_EQ(sealed[i], plain[i] ^ ks_byte) << "len=" << len << " i=" << i;
    }
  }
}

TEST(CipherBackend, SealOpenRoundTripsEveryBackend) {
  // XTEA is the one backend: a sealed payload grows by exactly the seal
  // overhead and opens to the plaintext at the peer.
  LinkCrypto alice(1), bob(2);
  const Key128 shared = Key128::FromSeed(91);
  alice.keystore().SetLinkKey(2, shared);
  bob.keystore().SetLinkKey(1, shared);
  util::Bytes plaintext(26);
  for (size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = static_cast<uint8_t>(i);
  }
  auto wire = alice.Seal(2, plaintext);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->size(), plaintext.size() + kSealOverheadBytes);
  auto opened = OpenCopy(bob, 1, *wire);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plaintext);
}

TEST(CipherBackend, SimulationResultsAreCipherIndependent) {
  // IpdaConfig::cipher is kept for roundbench and read by nothing: an
  // encrypted round that sets it must land on the accuracy and traffic
  // of one that leaves it at its default.
  agg::RunConfig config;
  config.deployment.node_count = 60;
  config.seed = 404;
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  agg::IpdaConfig defaulted;
  defaulted.slice_range = 1.0;
  agg::IpdaConfig spelled = defaulted;
  spelled.cipher = CipherKind::kXtea;
  auto a = agg::RunIpda(config, *function, *field, defaulted);
  auto b = agg::RunIpda(config, *function, *field, spelled);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->traffic.bytes_sent, 0u);
  EXPECT_EQ(b->accuracy, a->accuracy);
  EXPECT_EQ(b->traffic.bytes_sent, a->traffic.bytes_sent);
}

class XteaPermutationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XteaPermutationProperty, NoCollisionsInSample) {
  // A block cipher is a permutation: distinct plaintexts map to distinct
  // ciphertexts.
  const Key128 key = Key128::FromSeed(GetParam());
  std::set<uint64_t> outputs;
  for (uint64_t p = 0; p < 4096; ++p) {
    outputs.insert(XteaEncryptBlock(key, p));
  }
  EXPECT_EQ(outputs.size(), 4096u);
}

INSTANTIATE_TEST_SUITE_P(Keys, XteaPermutationProperty,
                         ::testing::Values(1, 17, 8675309));

}  // namespace
}  // namespace ipda::crypto
