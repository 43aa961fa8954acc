// Pairwise master-key derivation.
//
// Every link key is derived from a network master secret and the (unordered)
// endpoint pair, the simplest scheme satisfying iPDA's "link level
// encryption" requirement. Its security property: a third node never holds
// the key of a link it is not an endpoint of, so eavesdropping requires
// capturing an endpoint. (Contrast with crypto/predistribution.h.)

#ifndef IPDA_CRYPTO_PAIRWISE_H_
#define IPDA_CRYPTO_PAIRWISE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/key.h"
#include "crypto/keystore.h"

namespace ipda::crypto {

// An undirected link between two peers.
using Link = std::pair<PeerId, PeerId>;

class PairwiseKeyScheme {
 public:
  explicit PairwiseKeyScheme(uint64_t master_secret)
      : master_secret_(master_secret) {}

  // Symmetric in (a, b). Protocols key their links through
  // agg::ProvisionPairwiseKeys, which calls this on each link's first use.
  Key128 LinkKey(PeerId a, PeerId b) const;

 private:
  uint64_t master_secret_;
};

}  // namespace ipda::crypto

#endif  // IPDA_CRYPTO_PAIRWISE_H_
