#include "crypto/ctr.h"

#include <algorithm>
#include <cstring>

#include "crypto/stats.h"

namespace ipda::crypto {

void CtrCrypt(const CipherBackend& backend, const CipherSchedule& sched,
              uint64_t nonce, uint8_t* data, size_t size) {
  const size_t block_bytes = backend.block_bytes;
  ThreadCryptoStats().ctr_blocks_batched +=
      (size + block_bytes - 1) / block_bytes;
  ThreadCryptoStats().keystream_bytes += size;
  // One keystream chunk at a time through a stack buffer: a whole number
  // of blocks for every backend (8/16/64 all divide 512), small enough to
  // stay in L1. Keystream block i depends only on (sched, nonce, i), so
  // chunk boundaries never show up in the output bytes.
  constexpr size_t kChunkBytes = 512;
  alignas(16) uint8_t ks[kChunkBytes];
  uint64_t block = 0;
  size_t offset = 0;
  while (offset < size) {
    const size_t want = std::min(kChunkBytes, size - offset);
    const size_t blocks = (want + block_bytes - 1) / block_bytes;
    backend.keystream(sched, nonce, block, ks, blocks);
    block += blocks;
    const size_t n = std::min(blocks * block_bytes, size - offset);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t w;
      uint64_t k;
      std::memcpy(&w, data + offset + i, 8);
      std::memcpy(&k, ks + i, 8);
      w ^= k;
      std::memcpy(data + offset + i, &w, 8);
    }
    for (; i < n; ++i) data[offset + i] ^= ks[i];
    offset += n;
  }
}

void CtrCrypt(const CipherBackend& backend, const CipherSchedule& sched,
              uint64_t nonce, util::Bytes& data) {
  CtrCrypt(backend, sched, nonce, data.data(), data.size());
}

}  // namespace ipda::crypto
