#include "crypto/xtea.h"

namespace ipda::crypto {
namespace {

constexpr uint32_t kDelta = 0x9e3779b9;

inline uint32_t Mix(uint32_t v) { return ((v << 4) ^ (v >> 5)) + v; }

}  // namespace

XteaSchedule::XteaSchedule(const Key128& key) {
  uint32_t sum = 0;
  for (int i = 0; i < kXteaRounds; ++i) {
    k[2 * i] = sum + key.words[sum & 3];
    sum += kDelta;
    k[2 * i + 1] = sum + key.words[(sum >> 11) & 3];
  }
}

uint64_t XteaEncryptBlock(const Key128& key, uint64_t block) {
  uint32_t v0 = static_cast<uint32_t>(block);
  uint32_t v1 = static_cast<uint32_t>(block >> 32);
  uint32_t sum = 0;
  for (int i = 0; i < kXteaRounds; ++i) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key.words[sum & 3]);
    sum += kDelta;
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^
          (sum + key.words[(sum >> 11) & 3]);
  }
  return static_cast<uint64_t>(v0) | (static_cast<uint64_t>(v1) << 32);
}

uint64_t XteaEncryptBlock(const XteaSchedule& sched, uint64_t block) {
  uint32_t v0 = static_cast<uint32_t>(block);
  uint32_t v1 = static_cast<uint32_t>(block >> 32);
  for (int i = 0; i < kXteaRounds; ++i) {
    v0 += Mix(v1) ^ sched.k[2 * i];
    v1 += Mix(v0) ^ sched.k[2 * i + 1];
  }
  return static_cast<uint64_t>(v0) | (static_cast<uint64_t>(v1) << 32);
}

uint64_t XteaDecryptBlock(const Key128& key, uint64_t block) {
  uint32_t v0 = static_cast<uint32_t>(block);
  uint32_t v1 = static_cast<uint32_t>(block >> 32);
  uint32_t sum = kDelta * static_cast<uint32_t>(kXteaRounds);
  for (int i = 0; i < kXteaRounds; ++i) {
    v1 -= (((v0 << 4) ^ (v0 >> 5)) + v0) ^
          (sum + key.words[(sum >> 11) & 3]);
    sum -= kDelta;
    v0 -= (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key.words[sum & 3]);
  }
  return static_cast<uint64_t>(v0) | (static_cast<uint64_t>(v1) << 32);
}

uint64_t XteaDecryptBlock(const XteaSchedule& sched, uint64_t block) {
  uint32_t v0 = static_cast<uint32_t>(block);
  uint32_t v1 = static_cast<uint32_t>(block >> 32);
  for (int i = kXteaRounds; i-- > 0;) {
    v1 -= Mix(v0) ^ sched.k[2 * i + 1];
    v0 -= Mix(v1) ^ sched.k[2 * i];
  }
  return static_cast<uint64_t>(v0) | (static_cast<uint64_t>(v1) << 32);
}

namespace {

// Encrypts `Lanes` independent blocks with their rounds interleaved: XTEA
// is serial within a block, so the lanes are what keeps the ALUs fed.
template <size_t Lanes>
inline void EncryptLanes(const uint32_t k[2 * kXteaRounds],
                         const uint64_t* in, uint64_t* out) {
  uint32_t v0[Lanes];
  uint32_t v1[Lanes];
  for (size_t j = 0; j < Lanes; ++j) {
    v0[j] = static_cast<uint32_t>(in[j]);
    v1[j] = static_cast<uint32_t>(in[j] >> 32);
  }
  for (int r = 0; r < kXteaRounds; ++r) {
    const uint32_t k0 = k[2 * r];
    const uint32_t k1 = k[2 * r + 1];
    for (size_t j = 0; j < Lanes; ++j) v0[j] += Mix(v1[j]) ^ k0;
    for (size_t j = 0; j < Lanes; ++j) v1[j] += Mix(v0[j]) ^ k1;
  }
  for (size_t j = 0; j < Lanes; ++j) {
    out[j] =
        static_cast<uint64_t>(v0[j]) | (static_cast<uint64_t>(v1[j]) << 32);
  }
}

}  // namespace

void XteaEncryptBlocks(const XteaSchedule& sched, const uint64_t* in,
                       uint64_t* out, size_t n) {
  const uint32_t* k = sched.k.data();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) EncryptLanes<4>(k, in + i, out + i);
  // The tail runs as interleaved lanes too: a 10-byte slice is two blocks.
  switch (n - i) {
    case 3:
      EncryptLanes<3>(k, in + i, out + i);
      break;
    case 2:
      EncryptLanes<2>(k, in + i, out + i);
      break;
    case 1:
      EncryptLanes<1>(k, in + i, out + i);
      break;
    default:
      break;
  }
}

}  // namespace ipda::crypto
