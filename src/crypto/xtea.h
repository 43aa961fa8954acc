// XTEA block cipher (Needham & Wheeler, 1997), implemented from scratch.
//
// 64-bit blocks, 128-bit keys, 32 rounds. Chosen because it is the kind of
// lightweight cipher actually deployed on sensor motes; iPDA's design is
// cipher-agnostic ("can be built on top of any key management scheme"), so
// any pseudorandom permutation serves the protocol. It is the
// simulator's one link cipher, run in counter mode by crypto/ctr.h
// (DESIGN.md §14 records the backends that were dropped).
//
// The per-round subkey (sum + key.words[...]) depends only on the key and
// the round number, so XteaSchedule folds the whole selection into 64
// precomputed words — built once per link key instead of recomputed for
// every block. XteaEncryptBlocks encrypts independent blocks four at a
// time; XTEA's data path is serial within a block, so interleaving lanes
// is what keeps the ALUs fed on a CTR keystream.

#ifndef IPDA_CRYPTO_XTEA_H_
#define IPDA_CRYPTO_XTEA_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/key.h"

namespace ipda::crypto {

inline constexpr int kXteaRounds = 32;

// Expanded round keys: k[2i] feeds the v0 half-round, k[2i+1] the v1
// half-round. Bit-identical to deriving the subkeys inline per block.
struct XteaSchedule {
  std::array<uint32_t, 2 * kXteaRounds> k{};

  XteaSchedule() = default;
  explicit XteaSchedule(const Key128& key);
};

// Encrypts one 64-bit block (v0 = low half, v1 = high half packed LE).
uint64_t XteaEncryptBlock(const Key128& key, uint64_t block);
uint64_t XteaEncryptBlock(const XteaSchedule& sched, uint64_t block);

// Inverse of XteaEncryptBlock.
uint64_t XteaDecryptBlock(const Key128& key, uint64_t block);
uint64_t XteaDecryptBlock(const XteaSchedule& sched, uint64_t block);

// Encrypts `n` independent blocks (`out[i] = E(in[i])`), four lanes in
// flight; a 2- or 3-block remainder runs as that many lanes. `in` and
// `out` may alias only if identical.
void XteaEncryptBlocks(const XteaSchedule& sched, const uint64_t* in,
                       uint64_t* out, size_t n);

}  // namespace ipda::crypto

#endif  // IPDA_CRYPTO_XTEA_H_
