#include "crypto/ctr.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/stats.h"

namespace ipda::crypto {

void CtrCrypt(const XteaSchedule& sched, uint64_t nonce, uint8_t* data,
              size_t size) {
  ThreadCryptoStats().ctr_blocks_batched += (size + 7) / 8;
  ThreadCryptoStats().keystream_bytes += size;
  // 64 keystream blocks (512 B) at a time on the stack, small enough to
  // stay in L1. Block i depends only on (sched, nonce + i), so chunk
  // boundaries never show up in the output bytes.
  constexpr size_t kChunkBlocks = 64;
  uint64_t ks[kChunkBlocks];
  uint64_t block = 0;
  size_t offset = 0;
  while (offset < size) {
    const size_t n = std::min(8 * kChunkBlocks, size - offset);
    const size_t blocks = (n + 7) / 8;
    for (size_t i = 0; i < blocks; ++i) ks[i] = nonce + block + i;
    XteaEncryptBlocks(sched, ks, ks, blocks);
    block += blocks;
    uint8_t* chunk = data + offset;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t k = ks[i / 8];
      if constexpr (std::endian::native == std::endian::big) {
        k = __builtin_bswap64(k);  // Keystream bytes are little-endian.
      }
      uint64_t w;
      std::memcpy(&w, chunk + i, 8);
      w ^= k;
      std::memcpy(chunk + i, &w, 8);
    }
    for (; i < n; ++i) {
      chunk[i] ^= static_cast<uint8_t>(ks[i / 8] >> (8 * (i % 8)));
    }
    offset += n;
  }
}

void CtrCrypt(const XteaSchedule& sched, uint64_t nonce, util::Bytes& data) {
  CtrCrypt(sched, nonce, data.data(), data.size());
}

}  // namespace ipda::crypto
