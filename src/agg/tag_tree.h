// The TAG spanning tree (Madden et al., OSDI 2002) that the four
// single-tree baselines — TAG, SMART, CPDA and KIPDA — aggregate over.
//
// The base station floods a HELLO ([u16 level][protocol trailer]); each
// sensor adopts the first sender it hears as parent, rebroadcasts once a
// level deeper after a jitter, and reports at its depth slot (deepest
// first, so parents fold children in before their own slot). A protocol
// supplies its RNG fork labels, its report-phase start, an optional HELLO
// trailer and the report itself; the tree owns the rest.

#ifndef IPDA_AGG_TAG_TREE_H_
#define IPDA_AGG_TAG_TREE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "net/network.h"
#include "sim/time.h"
#include "util/bytes.h"
#include "util/random.h"
#include "util/result.h"

namespace ipda::agg {

// Uniform delay in [0, max], the jitter every protocol draws.
sim::SimTime UniformDelay(util::Rng& rng, sim::SimTime max);

// Depth-slotted report schedule (see ReportTime in agg/partial.h).
struct ReportSchedule {
  sim::SimTime start = 0;  // Report phase start.
  sim::SimTime slot = 0;   // Per-depth slot.
  uint32_t max_depth = 0;
  sim::SimTime jitter_max = 0;
};

// When a node that joins at depth `level` at time `now` reports: its
// depth slot plus a jitter drawn from `rng`, but no sooner than 1 ms from
// now (a late joiner whose slot has passed reports right away).
sim::SimTime JoinReportTime(const ReportSchedule& schedule, uint32_t level,
                            sim::SimTime now, util::Rng& rng);

struct TagTreeConfig {
  // The base station's first-HELLO jitter comes from its stream forked at
  // `start_label`; a joiner's rebroadcast and report jitters from its
  // stream forked at `join_label`.
  std::string_view start_label;
  std::string_view join_label;
  sim::SimTime hello_jitter_max = 0;
  ReportSchedule report;
};

class TagTree {
 public:
  // The protocol on top of the tree.
  class Client {
   public:
    // Every frame but a HELLO that does not decode; the tree has already
    // handled each HELLO.
    virtual void OnPacket(net::NodeId self, const net::Packet& packet) = 0;
    // Sends `self`'s partial to parent(self); called at its report slot.
    virtual void Report(net::NodeId self) = 0;
    // Reads the trailer of the HELLO `self` joins on and returns the
    // trailer its own HELLO carries, or an error that drops the frame.
    // By default HELLOs carry none.
    virtual util::Result<util::Bytes> JoinTrailer(net::NodeId self,
                                                  const util::Bytes& heard);

   protected:
    ~Client() = default;
  };

  // `network`, `client` and `nodes_joined`, which counts the sensors
  // that join, must outlive the tree.
  TagTree(net::Network* network, Client* client, size_t* nodes_joined,
          TagTreeConfig config);

  TagTree(const TagTree&) = delete;
  TagTree& operator=(const TagTree&) = delete;

  // Installs every node's receive handler and roots the tree: the base
  // station broadcasts the level-0 HELLO, with `trailer`, after a jitter.
  void Start(util::Bytes trailer = {});

  // When the report phase is over: the level-0 slot plus its jitter and a
  // margin for MAC delays.
  sim::SimTime Duration() const;

  bool joined(net::NodeId id) const { return nodes_[id].joined; }
  net::NodeId parent(net::NodeId id) const { return nodes_[id].parent; }

 private:
  struct Node {
    bool joined = false;
    net::NodeId parent = 0;
  };

  // A sensor outside the tree joins under the sender. Returns false for a
  // frame that does not decode.
  bool OnHello(net::NodeId self, const net::Packet& packet);

  net::Network* network_;
  Client* client_;
  size_t* nodes_joined_;
  TagTreeConfig config_;
  std::vector<Node> nodes_;
};

}  // namespace ipda::agg

#endif  // IPDA_AGG_TAG_TREE_H_
