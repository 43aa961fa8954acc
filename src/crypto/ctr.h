// Counter mode over XTEA, the one link cipher (crypto/xtea.h): turns the
// block cipher into a stream cipher for arbitrary-length payloads.
// Encryption and decryption are the same keystream XOR. Keystream block i
// of message (key, nonce) is XTEA(nonce + i), little-endian; the
// (nonce, counter) pair must never repeat under one key, which LinkCrypto
// (crypto/keystore.h) enforces with per-link counters. Hot callers
// (LinkCrypto) cache an XteaSchedule per link key. The textbook per-block
// loop in tests/crypto_cipher_test.cc is the referee for these bytes.

#ifndef IPDA_CRYPTO_CTR_H_
#define IPDA_CRYPTO_CTR_H_

#include <cstddef>
#include <cstdint>

#include "crypto/xtea.h"
#include "util/bytes.h"

namespace ipda::crypto {

// XORs `data` in place with the keystream for (sched, nonce), chunked so
// the keystream stays in L1 whatever the payload size.
void CtrCrypt(const XteaSchedule& sched, uint64_t nonce, uint8_t* data,
              size_t size);
void CtrCrypt(const XteaSchedule& sched, uint64_t nonce, util::Bytes& data);

}  // namespace ipda::crypto

#endif  // IPDA_CRYPTO_CTR_H_
