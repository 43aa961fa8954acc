// Network: topology + channel + one node per vertex, wired to a simulator.
// The standard substrate every protocol and experiment runs on.

#ifndef IPDA_NET_NETWORK_H_
#define IPDA_NET_NETWORK_H_

#include <memory>
#include <vector>

#include "net/channel.h"
#include "net/counters.h"
#include "net/node.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace ipda::net {

class Network {
 public:
  Network(sim::Simulator* sim, Topology topology, PhyConfig phy_config = {},
          MacConfig mac_config = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  size_t size() const { return nodes_.size(); }
  Node& node(NodeId id) { return *nodes_[id]; }
  const Node& node(NodeId id) const { return *nodes_[id]; }
  Node& base_station() { return *nodes_[kBaseStationId]; }

  const Topology& topology() const { return topology_; }
  // Mutable access for mid-round churn (fault::ChurnInjector). The channel
  // reads the same object, so mutations affect reachability immediately.
  Topology* mutable_topology() { return &topology_; }
  Channel& channel() { return channel_; }
  const Channel& channel() const { return channel_; }
  CounterBoard& counters() { return counters_; }
  const CounterBoard& counters() const { return counters_; }
  sim::Simulator& sim() { return *sim_; }

 private:
  sim::Simulator* sim_;
  Topology topology_;
  CounterBoard counters_;
  Channel channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace ipda::net

#endif  // IPDA_NET_NETWORK_H_
