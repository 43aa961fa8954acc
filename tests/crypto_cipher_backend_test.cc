
// Conformance and equivalence suite for the pluggable cipher backends
// (crypto/cipher.h): published test vectors pin the AES and ChaCha20
// cores to their specs, cross-path tests pin every engine (AES-NI vs
// portable, SSE2 vs four-lane) to identical bytes, and CTR/LinkCrypto/
// sim-level tests pin the generic backend path to the chunking- and
// compile-independence contracts the XTEA golden traces established.

#include "crypto/cipher.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/ctr.h"
#include "crypto/keystore.h"
#include "crypto/xtea.h"
#include "util/bytes.h"
#include "link_crypto_testing.h"
#include "util/random.h"

namespace ipda::crypto {
namespace {

constexpr CipherKind kAllKinds[] = {CipherKind::kXtea, CipherKind::kAesNi,
                                    CipherKind::kChaCha20};

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string ToHex(const uint8_t* data, size_t size) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < size; ++i) {
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 0xf]);
  }
  return out;
}

// ---------------------------------------------------------------- AES --

// FIPS-197 Appendix B / C.1: the single worked example every AES
// implementation must reproduce.
TEST(Aes, Fips197VectorPortable) {
  const auto key = FromHex("000102030405060708090a0b0c0d0e0f");
  const auto pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t rk[kAesScheduleBytes];
  AesKeyExpansion(key.data(), rk);
  uint8_t ct[16];
  AesEncryptBlockPortable(rk, pt.data(), ct);
  EXPECT_EQ(ToHex(ct, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197KeyExpansionLastRoundKey) {
  // FIPS-197 Appendix A.1's expansion ends at w[40..43] =
  // 13111d7f e3944a17 f307a78b 4d2b30c5.
  const auto key = FromHex("000102030405060708090a0b0c0d0e0f");
  uint8_t rk[kAesScheduleBytes];
  AesKeyExpansion(key.data(), rk);
  EXPECT_EQ(ToHex(rk + 160, 16), "13111d7fe3944a17f307a78b4d2b30c5");
}

TEST(Aes, Sp80038aVectorDispatched) {
  // NIST SP 800-38A F.1.1 (ECB-AES128 block 1) through the dispatched
  // engine — AES-NI where the host has it, the portable core otherwise.
  const auto key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto pt = FromHex("6bc1bee22e409f96e93d7e117393172a");
  uint8_t rk[kAesScheduleBytes];
  AesKeyExpansion(key.data(), rk);
  uint8_t ct[16];
  AesEncryptBlocks(rk, pt.data(), ct, 1);
  EXPECT_EQ(ToHex(ct, 16), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes, DispatchedMatchesPortableOnRandomBlocks) {
  // Block counts straddle the NI path's 4-blocks-in-flight pipeline so
  // both the pipelined body and the singles tail are compared.
  util::Rng rng(0xAE5);
  for (size_t n : {size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{17}}) {
    uint8_t rk[kAesScheduleBytes];
    const Key128 key = Key128::Random(rng);
    AesSchedule sched(key);
    std::memcpy(rk, sched.rk.data(), kAesScheduleBytes);
    std::vector<uint8_t> in(n * 16);
    for (auto& b : in) b = static_cast<uint8_t>(rng.NextUint64());
    std::vector<uint8_t> fast(n * 16), ref(n * 16);
    AesEncryptBlocks(rk, in.data(), fast.data(), n);
    for (size_t i = 0; i < n; ++i) {
      AesEncryptBlockPortable(rk, in.data() + 16 * i, ref.data() + 16 * i);
    }
    EXPECT_EQ(fast, ref) << "n=" << n;
  }
}

// ----------------------------------------------------------- ChaCha20 --

TEST(ChaCha20, Rfc8439BlockVector) {
  // RFC 8439 §2.3.2: 256-bit key 00..1f, 96-bit nonce, counter 1, driven
  // through the raw state interface (the backend itself uses the
  // 128-bit-key layout; the round function is the same).
  const auto key = FromHex(
      "000102030405060708090a0b0c0d0e0f"
      "101112131415161718191a1b1c1d1e1f");
  uint32_t state[16] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (int i = 0; i < 8; ++i) {
    std::memcpy(&state[4 + i], key.data() + 4 * i, 4);
  }
  state[12] = 1;           // Counter.
  state[13] = 0x09000000;  // Nonce bytes 000000090000004a00000000,
  state[14] = 0x4a000000;  // little-endian words.
  state[15] = 0x00000000;
  uint8_t out[64];
  ChaCha20Block(state, out);
  EXPECT_EQ(ToHex(out, 64),
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, BlocksMatchesSingleBlockCalls) {
  // Multi-block output must equal single-block calls with successive
  // counters — including a 64-bit counter carry out of word 12.
  util::Rng rng(0xC4A);
  uint32_t state[16];
  for (auto& w : state) w = static_cast<uint32_t>(rng.NextUint64());
  for (uint64_t counter0 : {uint64_t{0}, uint64_t{0xFFFFFFFE}}) {
    state[12] = static_cast<uint32_t>(counter0);
    state[13] = static_cast<uint32_t>(counter0 >> 32);
    constexpr size_t kBlocks = 7;
    std::vector<uint8_t> batched(kBlocks * 64), singles(kBlocks * 64);
    ChaCha20Blocks(state, batched.data(), kBlocks);
    uint32_t step[16];
    std::memcpy(step, state, sizeof(step));
    for (size_t i = 0; i < kBlocks; ++i) {
      const uint64_t counter = counter0 + i;
      step[12] = static_cast<uint32_t>(counter);
      step[13] = static_cast<uint32_t>(counter >> 32);
      ChaCha20Block(step, singles.data() + 64 * i);
    }
    EXPECT_EQ(batched, singles) << "counter0=" << counter0;
  }
}

TEST(ChaCha20, DispatchedMatchesPortable) {
  util::Rng rng(0xC4B);
  uint32_t state[16];
  for (auto& w : state) w = static_cast<uint32_t>(rng.NextUint64());
  for (size_t blocks : {size_t{1}, size_t{3}, size_t{4}, size_t{9}}) {
    std::vector<uint8_t> fast(blocks * 64), ref(blocks * 64);
    ChaCha20Blocks(state, fast.data(), blocks);
    ChaCha20BlocksPortable(state, ref.data(), blocks);
    EXPECT_EQ(fast, ref) << "blocks=" << blocks;
  }
}

// ---------------------------------------------------- generic CTR path --

// Reference CTR: one keystream block at a time through the backend's own
// keystream fn, XORed byte-by-byte. CtrCrypt's 512-byte chunked loop must
// match it at every length.
void ReferenceCtr(const CipherBackend& backend, const CipherSchedule& sched,
                  uint64_t nonce, uint8_t* data, size_t size) {
  std::vector<uint8_t> block(backend.block_bytes);
  for (size_t off = 0, i = 0; off < size; off += block.size(), ++i) {
    backend.keystream(sched, nonce, i, block.data(), 1);
    const size_t n = std::min(block.size(), size - off);
    for (size_t b = 0; b < n; ++b) data[off + b] ^= block[b];
  }
}

TEST(CipherBackend, CtrCryptMatchesReferenceAllLengths) {
  for (CipherKind kind : kAllKinds) {
    const CipherBackend& backend = GetCipherBackend(kind);
    CipherSchedule sched;
    backend.build(Key128::FromSeed(77), sched);
    for (size_t len = 0; len <= 300; ++len) {
      std::vector<uint8_t> chunked(len), ref(len);
      for (size_t i = 0; i < len; ++i) {
        chunked[i] = ref[i] = static_cast<uint8_t>(i * 31 + 7);
      }
      CtrCrypt(backend, sched, /*nonce=*/len, chunked.data(), len);
      ReferenceCtr(backend, sched, /*nonce=*/len, ref.data(), len);
      EXPECT_EQ(chunked, ref)
          << backend.name << " len=" << len;
      if (chunked != ref) break;
    }
  }
}

TEST(CipherBackend, CtrCryptMatchesReferenceRandomLengthsAndNonces) {
  util::Rng rng(0x17E);
  for (CipherKind kind : kAllKinds) {
    const CipherBackend& backend = GetCipherBackend(kind);
    CipherSchedule sched;
    backend.build(Key128::Random(rng), sched);
    for (int trial = 0; trial < 24; ++trial) {
      const size_t len = rng.NextUint64() % 2048;
      const uint64_t nonce = rng.NextUint64();
      std::vector<uint8_t> chunked(len), ref(len);
      for (size_t i = 0; i < len; ++i) {
        chunked[i] = ref[i] = static_cast<uint8_t>(rng.NextUint64());
      }
      CtrCrypt(backend, sched, nonce, chunked.data(), len);
      ReferenceCtr(backend, sched, nonce, ref.data(), len);
      ASSERT_EQ(chunked, ref) << backend.name << " len=" << len;
    }
  }
}

TEST(CipherBackend, KeystreamChunkingIsIndependent) {
  // Block i depends only on (schedule, nonce, i): any split of a run of
  // blocks concatenates to the one-shot bytes.
  for (CipherKind kind : kAllKinds) {
    const CipherBackend& backend = GetCipherBackend(kind);
    CipherSchedule sched;
    backend.build(Key128::FromSeed(5), sched);
    constexpr size_t kBlocks = 11;
    std::vector<uint8_t> whole(kBlocks * backend.block_bytes);
    backend.keystream(sched, /*nonce=*/99, /*block0=*/3, whole.data(),
                      kBlocks);
    std::vector<uint8_t> split(whole.size());
    for (size_t done = 0, step = 1; done < kBlocks; done += step, ++step) {
      const size_t n = std::min(step, kBlocks - done);
      backend.keystream(sched, /*nonce=*/99, /*block0=*/3 + done,
                        split.data() + done * backend.block_bytes, n);
    }
    EXPECT_EQ(whole, split) << backend.name;
  }
}

TEST(CipherBackend, XteaBackendMatchesLegacyPaths) {
  // The kXtea backend's CTR bytes must equal XTEA over the counter blocks
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
    CtrCrypt(backend, generic, kNonce, sealed);
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

// --------------------------------------------------------- LinkCrypto --

TEST(CipherBackend, SealOpenRoundTripsEveryBackend) {
  for (CipherKind kind : kAllKinds) {
    LinkCrypto alice(1, kind), bob(2, kind);
    const Key128 shared = Key128::FromSeed(91);
    alice.keystore().SetLinkKey(2, shared);
    bob.keystore().SetLinkKey(1, shared);
    util::Bytes plaintext(26);
    for (size_t i = 0; i < plaintext.size(); ++i) {
      plaintext[i] = static_cast<uint8_t>(i);
    }
    auto wire = alice.Seal(2, plaintext);
    ASSERT_TRUE(wire.ok()) << CipherKindName(kind);
    EXPECT_EQ(wire->size(), plaintext.size() + kSealOverheadBytes);
    auto opened = OpenCopy(bob, 1, *wire);
    ASSERT_TRUE(opened.ok()) << CipherKindName(kind);
    EXPECT_EQ(*opened, plaintext) << CipherKindName(kind);
  }
}

TEST(CipherBackend, BackendsProduceDistinctCiphertext) {
  // Sanity: the cipher knob actually changes the wire (same key, same
  // nonce, different keystreams).
  const Key128 key = Key128::FromSeed(3);
  util::Bytes base(32, 0x11);
  std::vector<util::Bytes> wires;
  for (CipherKind kind : kAllKinds) {
    LinkCrypto node(1, kind);
    node.keystore().SetLinkKey(2, key);
    wires.push_back(*node.Seal(2, base));
  }
  EXPECT_NE(wires[0], wires[1]);
  EXPECT_NE(wires[0], wires[2]);
  EXPECT_NE(wires[1], wires[2]);
}

// ------------------------------------------------------------- naming --

TEST(CipherBackend, ParseRoundTripsNames) {
  for (CipherKind kind : kAllKinds) {
    auto parsed = ParseCipherKind(CipherKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
    EXPECT_EQ(GetCipherBackend(kind).kind, kind);
    EXPECT_STREQ(GetCipherBackend(kind).name, CipherKindName(kind));
  }
  EXPECT_FALSE(ParseCipherKind("des").ok());
  EXPECT_FALSE(ParseCipherKind("").ok());
}

// ---------------------------------------------------------- sim level --

TEST(CipherBackend, SimulationResultsAreCipherIndependent) {
  // Ciphertext bytes differ per backend but lengths, schedules, and the
  // decrypted values do not — so a whole aggregation round must land on
  // identical accuracy and traffic counts whatever the cipher.
  agg::RunConfig config;
  config.deployment.node_count = 60;
  config.seed = 404;
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  double accuracy[kCipherKindCount];
  uint64_t bytes_sent[kCipherKindCount];
  for (size_t c = 0; c < kCipherKindCount; ++c) {
    agg::IpdaConfig ipda;
    ipda.slice_range = 1.0;
    ipda.cipher = kAllKinds[c];
    auto result = agg::RunIpda(config, *function, *field, ipda);
    ASSERT_TRUE(result.ok()) << CipherKindName(kAllKinds[c]);
    accuracy[c] = result->accuracy;
    bytes_sent[c] = result->traffic.bytes_sent;
  }
  for (size_t c = 1; c < kCipherKindCount; ++c) {
    EXPECT_EQ(accuracy[c], accuracy[0]) << CipherKindName(kAllKinds[c]);
    EXPECT_EQ(bytes_sent[c], bytes_sent[0]) << CipherKindName(kAllKinds[c]);
  }
}

}  // namespace
}  // namespace ipda::crypto
