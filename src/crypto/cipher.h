// Crypto-agility surface: pluggable link-cipher backends behind one
// counter-mode interface (DESIGN.md §14).
//
// The paper treats the link cipher as a free parameter ("can be built on
// top of any key management scheme", §III-C), and at city scale the
// keystream is a first-order share of round wall-clock — so the cipher is
// a knob worth measuring, not a constant. A CipherBackend bundles the
// three operations LinkCrypto needs: a one-time key-schedule build, a
// counter-indexed keystream generator, and (via crypto/ctr.h) a chunked
// CtrCrypt over that keystream. All backends share the CTR construction:
// keystream block i of message (key, nonce) depends only on (schedule,
// nonce, i), so ciphertext bytes are independent of chunking and the
// (nonce, counter) uniqueness contract LinkCrypto enforces carries over
// unchanged to every backend.
//
// Backends:
//   kXtea     — XTEA-CTR, 8-byte blocks, the paper-faithful default; wire
//               bytes are pinned by the committed golden traces.
//   kAesNi    — AES-128-CTR, 16-byte blocks. Runtime CPUID dispatch picks
//               the AES-NI path; hosts without the extension (or builds
//               with -DIPDA_DISABLE_CPU_INTRINSICS=ON) get the portable
//               reference core, byte-identical output.
//   kChaCha20 — ChaCha20 (RFC 8439 core), 64-byte blocks, 4-wide
//               word-parallel portable core with an SSE2 path.
//
// Schedules are fixed-size POD blobs sized for the largest backend, so
// KeyStore's dense per-link schedule arrays stay flat and zero-alloc on
// the seal/open hot path whatever the cipher.

#ifndef IPDA_CRYPTO_CIPHER_H_
#define IPDA_CRYPTO_CIPHER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "crypto/key.h"
#include "util/result.h"

namespace ipda::crypto {

enum class CipherKind : uint8_t {
  kXtea = 0,
  kAesNi = 1,
  kChaCha20 = 2,
};

inline constexpr size_t kCipherKindCount = 3;

// Expanded per-key state, uniform across backends: XTEA uses all 64 words
// (2x32 round keys), AES-128 the first 44 (11 round keys, byte layout),
// ChaCha20 the first 12 (4 constants + 8 key words).
struct CipherSchedule {
  alignas(16) std::array<uint32_t, 64> w{};
};

// One cipher engine. Instances are process-lifetime singletons returned
// by GetCipherBackend; hot paths hold the reference and pay one indirect
// call per keystream chunk, not per block.
struct CipherBackend {
  CipherKind kind;
  const char* name;  // Flag/metrics spelling: "xtea" | "aesni" | "chacha20".
  const char* impl;  // Resolved engine, e.g. "aes-ni" vs "aes-portable".
  uint32_t block_bytes;  // Keystream granularity.

  // One-time key expansion; called per link on its first Seal/Open, and
  // again only when a built link is rekeyed.
  void (*build)(const Key128& key, CipherSchedule& out);

  // Writes `blocks` keystream blocks for (schedule, nonce) starting at
  // block index `block0` — block i is independent of all others, so any
  // chunking of [block0, block0 + blocks) concatenates to the same bytes.
  void (*keystream)(const CipherSchedule& sched, uint64_t nonce,
                    uint64_t block0, uint8_t* out, size_t blocks);
};

// Singleton backend for `kind`; hardware dispatch is resolved once per
// process (CPUID + the IPDA_DISABLE_CPU_INTRINSICS build switch).
const CipherBackend& GetCipherBackend(CipherKind kind);

// Flag-value spelling of `kind` ("xtea" | "aesni" | "chacha20").
const char* CipherKindName(CipherKind kind);

// Inverse of CipherKindName; InvalidArgument on unknown names.
util::Result<CipherKind> ParseCipherKind(std::string_view name);

// Comma-joined CipherKindName list for flag help text.
const char* CipherKindChoices();

}  // namespace ipda::crypto

#endif  // IPDA_CRYPTO_CIPHER_H_
