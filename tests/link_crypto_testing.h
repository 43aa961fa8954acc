// Test helper: LinkCrypto::Open into a fresh buffer, for assertions that
// compare a whole plaintext.

#ifndef IPDA_TESTS_LINK_CRYPTO_TESTING_H_
#define IPDA_TESTS_LINK_CRYPTO_TESTING_H_

#include "crypto/keystore.h"
#include "util/bytes.h"
#include "util/result.h"

namespace ipda::crypto {

inline util::Result<util::Bytes> OpenCopy(LinkCrypto& crypto, PeerId peer,
                                          const util::Bytes& wire) {
  util::Bytes plaintext;
  IPDA_RETURN_IF_ERROR(crypto.Open(peer, wire, plaintext));
  return plaintext;
}

}  // namespace ipda::crypto

#endif  // IPDA_TESTS_LINK_CRYPTO_TESTING_H_
