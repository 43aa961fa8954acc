// Pairwise link keys for the protocols that seal per hop (iPDA, SMART,
// CPDA), provisioned one way for all three.

#ifndef IPDA_AGG_LINK_KEYS_H_
#define IPDA_AGG_LINK_KEYS_H_

#include <vector>

#include "crypto/keystore.h"
#include "crypto/pairwise.h"
#include "net/topology.h"

namespace ipda::agg {

// One LinkCrypto per node of `topology`, indexed by node id. A node's
// provisioned peers are its current neighbours, so HasLinkKey() answers
// Topology::AreNeighbors; each link's key and XTEA schedule come from
// `scheme` on the link's first Seal/Open (DESIGN.md §9). kAnyPeer also
// keys non-neighbours on first contact, for rounds whose links change
// mid-round (churn).
std::vector<crypto::LinkCrypto> ProvisionPairwiseKeys(
    const net::Topology& topology, const crypto::PairwiseKeyScheme& scheme,
    crypto::KeyStore::DeriveScope scope);

}  // namespace ipda::agg

#endif  // IPDA_AGG_LINK_KEYS_H_
