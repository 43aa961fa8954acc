// KIPDA — k-Indistinguishable Privacy-preserving Data Aggregation
// (Groat, He, Forrest — INFOCOM 2011; listed among this paper's directly
// related work, and the follow-up that gives "indistinguishable privacy"
// its name).
//
// KIPDA privately computes exact MAX (or MIN) with NO cryptography at
// all: each sensor transmits a message of M values in which its real
// reading hides among camouflage. A global secret S ⊂ {0..M-1} of "real
// positions" is shared by sensors and the base station:
//   * the reading is placed at one (random) position in S;
//   * other positions in S carry camouflage ≤ the reading (so they can
//     never corrupt an elementwise maximum over S);
//   * positions outside S carry unconstrained camouflage — values that
//     may exceed every real reading, which is what makes the real value
//     indistinguishable inside the vector.
// Aggregators combine children by elementwise max — no decryption, no
// per-hop latency cost — and the base station reads max over S.
//
// Included as the third related baseline: it trades iPDA's additive
// generality and integrity for exact extremes with zero crypto.

#ifndef IPDA_AGG_KIPDA_KIPDA_PROTOCOL_H_
#define IPDA_AGG_KIPDA_KIPDA_PROTOCOL_H_

#include <vector>

#include "agg/aggregate_function.h"
#include "agg/tag_tree.h"
#include "net/network.h"
#include "sim/time.h"
#include "util/random.h"
#include "util/status.h"

namespace ipda::agg {

struct KipdaConfig {
  size_t message_size = 12;    // M: slots per message.
  size_t real_positions = 4;   // |S|: secret real-position count.
  uint64_t secret_seed = 0x51EC437;  // Shared secret selecting S.
  // Readings must lie in [value_floor, value_ceiling]; camouflage outside
  // S is drawn over the whole range (and may exceed every real reading).
  double value_floor = 0.0;
  double value_ceiling = 100.0;
  bool maximize = true;  // false computes MIN (mirrored constraints).

  sim::SimTime hello_jitter_max = sim::Milliseconds(50);
  sim::SimTime build_window = sim::Seconds(2);
  sim::SimTime slot = sim::Milliseconds(100);
  uint32_t max_depth = 24;
  sim::SimTime report_jitter_max = sim::Milliseconds(60);
};

util::Status ValidateKipdaConfig(const KipdaConfig& config);

// The secret position set S for a given config (sorted, deterministic in
// secret_seed). Exposed for the base station, tests, and attack models.
std::vector<size_t> KipdaRealPositions(const KipdaConfig& config);

// Builds one sensor's camouflaged message for `reading`.
Vector KipdaEncode(const KipdaConfig& config, double reading,
                   util::Rng& rng);

// Elementwise combine (max or min per config).
void KipdaCombine(const KipdaConfig& config, Vector& acc, const Vector& in);

// Base-station readout: extreme over the secret positions.
double KipdaDecode(const KipdaConfig& config, const Vector& message);

struct KipdaStats {
  size_t nodes_joined = 0;
  size_t reports_sent = 0;
  Vector collected;  // Elementwise-combined message at the base station.
};

class KipdaProtocol : private TagTree::Client {
 public:
  KipdaProtocol(net::Network* network, KipdaConfig config = {});

  KipdaProtocol(const KipdaProtocol&) = delete;
  KipdaProtocol& operator=(const KipdaProtocol&) = delete;

  void SetReadings(std::vector<double> readings);
  void Start();
  sim::SimTime Duration() const { return tree_.Duration(); }
  const KipdaStats& stats() const { return stats_; }
  // The MAX (or MIN) answer.
  double FinalizedResult() const {
    return KipdaDecode(config_, stats_.collected);
  }

 private:
  void OnPacket(net::NodeId self, const net::Packet& packet) override;
  void Report(net::NodeId self) override;

  net::Network* network_;
  KipdaConfig config_;
  std::vector<double> readings_;
  std::vector<Vector> acc_;  // Per node: elementwise-combined children.
  KipdaStats stats_;
  TagTree tree_;
  bool started_ = false;
};

}  // namespace ipda::agg

#endif  // IPDA_AGG_KIPDA_KIPDA_PROTOCOL_H_
