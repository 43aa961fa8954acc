// TAG (Madden et al., OSDI 2002) tree aggregation — the paper's baseline.
//
// The base station floods a HELLO; each node adopts the first sender it
// hears as parent, forming a spanning tree, and rebroadcasts once. During
// the report phase nodes transmit partial aggregates to their parents in
// depth-ordered slots (deepest first) so parents fold children in before
// their own slot. No privacy (readings travel as plaintext partials) and
// no integrity protection — exactly the comparison point of §IV.

#ifndef IPDA_AGG_TAG_TAG_PROTOCOL_H_
#define IPDA_AGG_TAG_TAG_PROTOCOL_H_

#include <optional>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/query.h"
#include "agg/tag_tree.h"
#include "net/network.h"
#include "sim/time.h"
#include "util/status.h"

namespace ipda::agg {

struct TagConfig {
  sim::SimTime hello_jitter_max = sim::Milliseconds(50);
  sim::SimTime build_window = sim::Seconds(2);     // HELLO flood budget.
  sim::SimTime slot = sim::Milliseconds(100);      // Per-depth report slot.
  uint32_t max_depth = 24;
  sim::SimTime report_jitter_max = sim::Milliseconds(60);
};

util::Status ValidateTagConfig(const TagConfig& config);

struct TagStats {
  size_t nodes_joined = 0;     // In the spanning tree (excluding the BS).
  size_t reports_sent = 0;     // Nodes that transmitted a partial.
  Vector collected;            // Accumulated at the base station.
};

class TagProtocol : private TagTree::Client {
 public:
  // `network` and `function` must outlive the protocol. Readings default
  // to zero; set them before Start().
  TagProtocol(net::Network* network, const AggregateFunction* function,
              TagConfig config = {});

  TagProtocol(const TagProtocol&) = delete;
  TagProtocol& operator=(const TagProtocol&) = delete;

  // readings[id] is node id's sensor value; index 0 (base station) ignored.
  void SetReadings(std::vector<double> readings);

  // Disseminates `query` with the HELLO flood; sensors then compute what
  // the received query asks for (must match the constructor's function).
  void SetQuery(const Query& query);

  // Installs handlers and schedules the run; afterwards advance the
  // simulator to at least Duration().
  void Start();

  // Simulated time from Start() until the base station's answer is final.
  sim::SimTime Duration() const { return tree_.Duration(); }

  const TagStats& stats() const { return stats_; }

  // Base-station answer after the run.
  double FinalizedResult() const {
    return function_->Finalize(stats_.collected);
  }

 private:
  struct NodeState {
    Vector acc;  // Children partials; own contribution added at report.
    std::optional<Query> received_query;
  };

  void OnPacket(net::NodeId self, const net::Packet& packet) override;
  // Adopts the query a joining node heard and returns its HELLO trailer.
  util::Result<util::Bytes> JoinTrailer(net::NodeId self,
                                        const util::Bytes& heard) override;
  void Report(net::NodeId self) override;

  net::Network* network_;
  const AggregateFunction* function_;
  TagConfig config_;
  std::optional<Query> query_;
  std::vector<double> readings_;
  std::vector<NodeState> states_;
  TagStats stats_;
  TagTree tree_;
  bool started_ = false;
};

}  // namespace ipda::agg

#endif  // IPDA_AGG_TAG_TAG_PROTOCOL_H_
