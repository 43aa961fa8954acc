// Counter mode: turns a block cipher's keystream into a stream cipher for
// arbitrary-length payloads. Encryption and decryption are the same
// keystream XOR; the (nonce, counter) pair must never repeat under one key,
// which LinkCrypto (crypto/keystore.h) enforces with per-link counters.
//
// One path serves every backend (crypto/cipher.h): CtrCrypt pulls the
// backend's keystream through a stack buffer and XORs it word-at-a-time,
// whatever the block size. Hot callers (LinkCrypto) cache a CipherSchedule
// per link key. With the kXtea backend the bytes equal the textbook
// per-block XTEA-CTR loop, which tests/crypto_cipher_test.cc keeps as the
// referee.

#ifndef IPDA_CRYPTO_CTR_H_
#define IPDA_CRYPTO_CTR_H_

#include <cstddef>
#include <cstdint>

#include "crypto/cipher.h"
#include "util/bytes.h"

namespace ipda::crypto {

// XORs `data` in place with `backend`'s keystream for (sched, nonce),
// chunked so the keystream stays in L1 whatever the payload size.
void CtrCrypt(const CipherBackend& backend, const CipherSchedule& sched,
              uint64_t nonce, uint8_t* data, size_t size);
void CtrCrypt(const CipherBackend& backend, const CipherSchedule& sched,
              uint64_t nonce, util::Bytes& data);

// Writes `blocks` keystream blocks of `backend.block_bytes` each, starting
// at block index `block0` — the primitive underneath CtrCrypt, exposed
// for equivalence tests and benchmarks.
inline void CtrKeystream(const CipherBackend& backend,
                         const CipherSchedule& sched, uint64_t nonce,
                         uint64_t block0, uint8_t* out, size_t blocks) {
  backend.keystream(sched, nonce, block0, out, blocks);
}

}  // namespace ipda::crypto

#endif  // IPDA_CRYPTO_CTR_H_
