#include "agg/link_keys.h"

namespace ipda::agg {

std::vector<crypto::LinkCrypto> ProvisionPairwiseKeys(
    const net::Topology& topology, const crypto::PairwiseKeyScheme& scheme,
    crypto::KeyStore::DeriveScope scope) {
  std::vector<crypto::LinkCrypto> cryptos;
  cryptos.reserve(topology.node_count());
  for (net::NodeId id = 0; id < topology.node_count(); ++id) {
    const net::NeighborSpan neighbors = topology.neighbors(id);
    cryptos.emplace_back(id).keystore().Provision(
        std::vector<crypto::PeerId>(neighbors.begin(), neighbors.end()),
        [scheme, id](crypto::PeerId peer) { return scheme.LinkKey(id, peer); },
        scope);
  }
  return cryptos;
}

}  // namespace ipda::agg
