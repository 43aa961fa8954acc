// SMART — Slice-Mix-AggRegaTe (He et al., "PDA: Privacy-preserving Data
// Aggregation in Wireless Sensor Networks", INFOCOM 2007 — the paper's
// reference [11], whose slicing technique iPDA §III-C "tailors").
//
// SMART provides privacy but NO integrity protection: one TAG-style
// spanning tree, with each sensor hiding its reading by slicing it into J
// pieces, keeping one, and sending J−1 link-encrypted pieces to random
// tree neighbors, which mix (sum) what they receive before normal tree
// aggregation. Implemented here as the intermediate baseline between TAG
// (no privacy, no integrity) and iPDA (both): it isolates what the
// disjoint-tree redundancy costs and buys.

#ifndef IPDA_AGG_SMART_SMART_PROTOCOL_H_
#define IPDA_AGG_SMART_SMART_PROTOCOL_H_

#include <functional>
#include <optional>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/tag_tree.h"
#include "crypto/keystore.h"
#include "net/network.h"
#include "sim/time.h"
#include "util/status.h"

namespace ipda::agg {

struct SmartConfig {
  uint32_t slice_count = 3;     // J: pieces per reading (PDA evaluates 3).
  double slice_range = 50.0;    // Random slices uniform in +/- range.
  bool encrypt_slices = true;
  sim::SimTime hello_jitter_max = sim::Milliseconds(50);
  sim::SimTime build_window = sim::Seconds(2);
  sim::SimTime slice_window = sim::Milliseconds(800);
  sim::SimTime slot = sim::Milliseconds(100);
  uint32_t max_depth = 24;
  sim::SimTime report_jitter_max = sim::Milliseconds(60);
};

util::Status ValidateSmartConfig(const SmartConfig& config);

struct SmartStats {
  size_t nodes_joined = 0;
  size_t participants = 0;   // Sent their full J-1 slice set.
  size_t slices_sent = 0;
  size_t reports_sent = 0;
  Vector collected;          // At the base station. No integrity check.
};

class SmartProtocol : private TagTree::Client {
 public:
  // Ground-truth tap with the same shape as IpdaProtocol's: transmitted
  // slices carry the target, the kept slice reports to == from. SMART has
  // no trees, so the color argument is absent.
  using SliceObserver = std::function<void(
      net::NodeId from, net::NodeId to, const Vector& slice)>;

  SmartProtocol(net::Network* network, const AggregateFunction* function,
                SmartConfig config = {});

  SmartProtocol(const SmartProtocol&) = delete;
  SmartProtocol& operator=(const SmartProtocol&) = delete;

  void SetReadings(std::vector<double> readings);
  // External keys (indexed by node id); defaults to pairwise provisioning.
  void SetLinkCrypto(std::vector<crypto::LinkCrypto>* cryptos);
  void SetSliceObserver(SliceObserver observer);

  void Start();
  sim::SimTime Duration() const { return tree_.Duration(); }
  const SmartStats& stats() const { return stats_; }
  double FinalizedResult() const {
    return function_->Finalize(stats_.collected);
  }

 private:
  struct NodeState {
    std::vector<net::NodeId> heard;  // Joined neighbors (slice targets).
    Vector mixed;                    // Kept slice + received slices.
    Vector children;
    bool participated = false;
  };

  void OnPacket(net::NodeId self, const net::Packet& packet) override;
  void DoSlicing(net::NodeId self);
  void Report(net::NodeId self) override;
  crypto::LinkCrypto& crypto_for(net::NodeId id) { return (*cryptos_)[id]; }

  net::Network* network_;
  const AggregateFunction* function_;
  SmartConfig config_;
  std::vector<double> readings_;
  std::vector<NodeState> states_;
  std::vector<crypto::LinkCrypto> owned_cryptos_;
  std::vector<crypto::LinkCrypto>* cryptos_ = nullptr;
  SliceObserver slice_observer_;
  util::Bytes opened_;  // Plaintext of the slice being received (reused).
  SmartStats stats_;
  TagTree tree_;
  bool started_ = false;
};

}  // namespace ipda::agg

#endif  // IPDA_AGG_SMART_SMART_PROTOCOL_H_
