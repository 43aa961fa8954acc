// Compatibility names for code written against the removed multi-cipher
// seam (DESIGN.md §14). XTEA-CTR (crypto/ctr.h) is the one link cipher;
// everything here forwards into it, with no second path and no dispatch.
// roundbench/workloads.cc still spells these names; once it stops, this
// header goes.

#ifndef IPDA_CRYPTO_CIPHER_H_
#define IPDA_CRYPTO_CIPHER_H_

#include <cstddef>
#include <cstdint>

#include "crypto/ctr.h"
#include "crypto/key.h"
#include "crypto/xtea.h"

namespace ipda::crypto {

// Kept only for roundbench: the one cipher, spelled as the old enum.
enum class CipherKind : uint8_t { kXtea = 0 };

// Kept only for roundbench: the old schedule name.
using CipherSchedule = XteaSchedule;

// Kept only for roundbench: `.build(key, schedule)` expands an XTEA key.
struct CipherBackend {
  void build(const Key128& key, CipherSchedule& out) const {
    out = XteaSchedule(key);
  }
};

// Kept only for roundbench: the XTEA "backend".
inline const CipherBackend& GetCipherBackend(CipherKind) {
  static constexpr CipherBackend kXtea;
  return kXtea;
}

// Kept only for roundbench: forwards to the one CTR path.
inline void CtrCrypt(const CipherBackend&, const CipherSchedule& sched,
                     uint64_t nonce, uint8_t* data, size_t size) {
  CtrCrypt(sched, nonce, data, size);
}

}  // namespace ipda::crypto

#endif  // IPDA_CRYPTO_CIPHER_H_
