// CPDA — Cluster-based Private Data Aggregation (the second scheme of
// PDA, INFOCOM 2007, the paper's reference [11]).
//
// Sensors form one-hop clusters around self-elected leaders. Within a
// cluster of m >= 3 members, each member hides its contribution in a
// degree-2 masking polynomial, hands every other member one evaluation,
// and sends the leader the SUM of the evaluations it received. The summed
// points lie on Σ_i p_i(x); its constant term — the cluster total — falls
// out of Lagrange interpolation, while individual values stay hidden
// unless three members collude. Leaders then aggregate cluster totals up
// a TAG-style tree.
//
// Like SMART this protects privacy but not integrity; it trades SMART's
// per-slice traffic for two in-cluster rounds of point exchange. Included
// as the second baseline the iPDA lineage builds on.

#ifndef IPDA_AGG_CPDA_CPDA_PROTOCOL_H_
#define IPDA_AGG_CPDA_CPDA_PROTOCOL_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/tag_tree.h"
#include "crypto/keystore.h"
#include "crypto/pairwise.h"
#include "net/network.h"
#include "sim/time.h"
#include "util/status.h"

namespace ipda::agg {

struct CpdaConfig {
  double leader_probability = 0.3;  // p_c: self-election chance.
  double coeff_range = 100.0;       // Masking coefficient range.
  size_t poly_degree = 2;           // PDA uses degree 2 (3-collusion).
  // In-cluster share traffic is quadratic in cluster size, so leaders
  // close enrollment here; later joiners fall back (PDA keeps clusters
  // small for the same reason).
  size_t max_cluster_size = 6;
  bool encrypt_shares = true;
  // Nodes that hear no leader contribute unmasked (counted as
  // `unprotected`) instead of dropping out; set false to drop them.
  bool fallback_unclustered = true;

  sim::SimTime hello_jitter_max = sim::Milliseconds(50);
  sim::SimTime build_window = sim::Seconds(2);        // TAG tree flood.
  sim::SimTime announce_window = sim::Milliseconds(300);
  sim::SimTime join_window = sim::Milliseconds(300);
  sim::SimTime roster_window = sim::Milliseconds(300);
  sim::SimTime share_window = sim::Milliseconds(1500);
  sim::SimTime response_window = sim::Milliseconds(800);
  sim::SimTime slot = sim::Milliseconds(100);
  uint32_t max_depth = 24;
  sim::SimTime report_jitter_max = sim::Milliseconds(60);
};

util::Status ValidateCpdaConfig(const CpdaConfig& config);

struct CpdaStats {
  size_t nodes_joined = 0;      // In the routing tree.
  size_t leaders = 0;
  size_t clustered = 0;         // Members of a >=3 cluster (incl. leader).
  size_t unprotected = 0;       // Contributed unmasked (fallback).
  size_t shares_sent = 0;       // Point-evaluation messages.
  size_t responses_sent = 0;
  size_t clusters_solved = 0;   // Interpolation succeeded.
  size_t clusters_lost = 0;     // Too few complete responses.
  Vector collected;             // At the base station. No integrity check.
};

class CpdaProtocol : private TagTree::Client {
 public:
  // Ground-truth tap for every polynomial evaluation a member produces
  // (the kept self-evaluation reports to == from). Collusion analyses
  // subscribe here: deg+1 colluding co-members holding a victim's points
  // can reconstruct its value.
  using ShareObserver = std::function<void(
      net::NodeId from, net::NodeId to, const Vector& evaluation)>;

  CpdaProtocol(net::Network* network, const AggregateFunction* function,
               CpdaConfig config = {});

  CpdaProtocol(const CpdaProtocol&) = delete;
  CpdaProtocol& operator=(const CpdaProtocol&) = delete;

  void SetReadings(std::vector<double> readings);
  void SetLinkCrypto(std::vector<crypto::LinkCrypto>* cryptos);
  void SetShareObserver(ShareObserver observer);

  void Start();
  sim::SimTime Duration() const { return tree_.Duration(); }
  // Finalizes cluster bookkeeping; call after the run. Idempotent.
  const CpdaStats& Finish();
  const CpdaStats& stats() const { return stats_; }
  double FinalizedResult() const {
    return function_->Finalize(stats_.collected);
  }

 private:
  struct NodeState {
    // Cluster bookkeeping.
    bool is_leader = false;
    net::NodeId leader = net::kBroadcastId;  // Chosen cluster.
    std::vector<net::NodeId> heard_leaders;
    std::vector<net::NodeId> members;        // Leader: the roster.
    std::vector<net::NodeId> roster;         // Member: roster received.
    Vector share_sum;          // Σ received evaluations (incl. own).
    size_t shares_received = 0;
    // Leader: complete responses, point x -> summed evaluations.
    std::unordered_map<net::NodeId, Vector> responses;
    Vector pending;            // Cluster sum / fallback for the report.
    Vector children;
  };

  // Ensures `self` can seal to co-member `member`. With the built-in
  // master-key scheme both endpoints derive the pair key independently;
  // with external keys (e.g. EG) a missing key means the share is lost.
  bool EnsurePairKey(net::NodeId self, net::NodeId member);
  void OnPacket(net::NodeId self, const net::Packet& packet) override;
  void OnControl(net::NodeId self, const net::Packet& packet);
  void AnnounceOrJoin(net::NodeId self);
  void PickLeader(net::NodeId self);
  void SendRoster(net::NodeId self);
  void SendShares(net::NodeId self);
  void SendResponse(net::NodeId self);
  void SolveCluster(net::NodeId self);
  void Report(net::NodeId self) override;
  sim::SimTime ReportStart() const;
  crypto::LinkCrypto& crypto_for(net::NodeId id) { return (*cryptos_)[id]; }
  util::Bytes MaybeSeal(net::NodeId self, net::NodeId to,
                        const util::Bytes& plaintext);
  std::optional<util::Bytes> MaybeOpen(net::NodeId self, net::NodeId from,
                                       const util::Bytes& wire);

  net::Network* network_;
  const AggregateFunction* function_;
  CpdaConfig config_;
  std::vector<double> readings_;
  std::vector<NodeState> states_;
  std::vector<crypto::LinkCrypto> owned_cryptos_;
  std::vector<crypto::LinkCrypto>* cryptos_ = nullptr;
  std::optional<crypto::PairwiseKeyScheme> pairwise_scheme_;
  ShareObserver share_observer_;
  CpdaStats stats_;
  TagTree tree_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace ipda::agg

#endif  // IPDA_AGG_CPDA_CPDA_PROTOCOL_H_
