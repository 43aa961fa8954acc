// Key-management ablation (§IV-A-3: iPDA "can be built on top of any key
// management scheme", but the scheme determines p_x).
//
// Compares pairwise master-key derivation against Eschenauer-Gligor random
// predistribution at several ring sizes: how many links can be keyed at
// all (unkeyed links shrink the slice-target pool), what that does to
// participation/accuracy, and how far a 10-node-capture adversary sees
// under each scheme (EG leaks third-party links; pairwise never does).
//
// The table also folds in the cipher dimension: each row carries the
// keystream bytes a node CTR-crypts per aggregation round (scheme-
// dependent — unkeyed links mean fewer sealed slices), and per-backend
// µJ/node/round columns derived from measured 4 KiB keystream throughput
// (xtea/aesni/chacha20), so keying scheme and cipher choice read off one
// table. Wire bytes per backend are identical; only the cycles differ.

#include <chrono>
#include <cstdio>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "attack/eavesdropper.h"
#include "crypto/cipher.h"
#include "crypto/ctr.h"
#include "crypto/link_security.h"
#include "crypto/pairwise.h"
#include "crypto/predistribution.h"
#include "bench_common.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace ipda::bench {
namespace {

constexpr size_t kNodes = 400;
constexpr size_t kCaptured = 10;

// Radio-active power while the CPU runs the cipher; a mote-class figure
// used only to convert measured keystream time into a comparable energy
// column, not a calibrated board model.
constexpr double kActivePowerWatts = 0.030;

struct SchemeOutcome {
  double keyed_fraction = 1.0;
  double participation = 0.0;
  double accuracy = 0.0;
  double capture_exposure = 0.0;  // Broken-link fraction, 10 captures.
  double disclosure = 0.0;        // Empirical P_disclose under capture.
  double keystream_bytes_per_node = 0.0;  // CTR payload bytes / node.
};

// Bytes/s CTR-crypting 4 KiB buffers through the generic backend path —
// the same chunked loop LinkCrypto::Seal drives. Grows the pass count
// until the sample dwarfs clock granularity.
double MeasureKeystreamThroughput(crypto::CipherKind kind) {
  const crypto::CipherBackend& backend = crypto::GetCipherBackend(kind);
  crypto::CipherSchedule sched;
  backend.build(crypto::Key128::FromSeed(0x5EED), sched);
  std::vector<uint8_t> buf(4096, 0xA5);
  size_t passes = 64;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t p = 0; p < passes; ++p) {
      crypto::CtrCrypt(backend, sched, /*nonce=*/p, buf.data(), buf.size());
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (elapsed.count() >= 0.02) {
      return static_cast<double>(passes) * 4096.0 / elapsed.count();
    }
    passes *= 4;
  }
}

int RunScheme(uint64_t seed, const crypto::EgConfig* eg,
              SchemeOutcome& out) {
  agg::RunConfig config = PaperRunConfig(kNodes, seed);
  auto topology = agg::BuildRunTopology(config);
  if (!topology.ok()) return 1;
  std::vector<crypto::Link> links;
  for (net::NodeId a = 0; a < topology->node_count(); ++a) {
    for (net::NodeId b : topology->neighbors(a)) {
      if (a < b) links.emplace_back(a, b);
    }
  }
  std::vector<crypto::LinkCrypto> cryptos;
  for (net::NodeId id = 0; id < topology->node_count(); ++id) {
    cryptos.emplace_back(id);
  }

  util::Rng rng(util::Mix64(seed, 0xE6));
  crypto::LinkCompromiseReport capture;
  std::optional<crypto::KeyPredistribution> predistribution;
  if (eg == nullptr) {
    crypto::PairwiseKeyScheme scheme(seed * 31 + 7);
    scheme.Provision(links, cryptos);
    out.keyed_fraction = 1.0;
    capture = crypto::NodeCaptureUnderPairwise(
        links, topology->node_count(), kCaptured, rng);
  } else {
    auto created = crypto::KeyPredistribution::Create(
        *eg, topology->node_count(), seed * 131 + 3, rng);
    if (!created.ok()) return 1;
    predistribution = std::move(*created);
    out.keyed_fraction = predistribution->Provision(links, cryptos);
    capture = crypto::NodeCaptureUnderPredistribution(
        links, *predistribution, kCaptured, rng);
  }
  out.capture_exposure = capture.fraction_broken;

  std::vector<bool> broken(capture.broken.begin(), capture.broken.end());
  attack::Eavesdropper eve(topology->node_count(), links, broken);

  config.topology = &*topology;
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  agg::IpdaRunHooks hooks;
  hooks.slice_observer = eve.Observer();
  hooks.link_crypto = &cryptos;
  auto run =
      agg::RunIpda(config, *function, *field, PaperIpdaConfig(2), hooks);
  if (!run.ok()) return 1;
  const agg::IpdaStats& stats = run->stats;
  out.keystream_bytes_per_node =
      run->metrics.CounterOr("crypto.keystream_bytes", 0.0) /
      static_cast<double>(kNodes);
  out.participation = static_cast<double>(stats.participants) /
                      static_cast<double>(kNodes - 1);
  out.accuracy =
      agg::AccuracyRatio(stats.decision.Agreed(),
                         agg::Vector{static_cast<double>(kNodes - 1)});
  out.disclosure = eve.Evaluate().disclosure_rate;
  return 0;
}

int Run(int argc, char** argv) {
  exp::Engine engine(BenchJobs(argc, argv));
  PrintHeader("Key-management ablation — pairwise vs EG predistribution",
              "keyable links, participation, 10-node-capture exposure, "
              "per-cipher energy");
  const size_t runs = RunsPerPoint();

  // One throughput sample per backend (4 KiB buffers, this core); the
  // energy columns below divide each scheme's per-node keystream bytes
  // by these rates.
  const crypto::CipherKind ciphers[] = {crypto::CipherKind::kXtea,
                                        crypto::CipherKind::kAesNi,
                                        crypto::CipherKind::kChaCha20};
  double throughput[std::size(ciphers)];
  std::printf("keystream throughput (4 KiB CTR buffers):");
  for (size_t c = 0; c < std::size(ciphers); ++c) {
    throughput[c] = MeasureKeystreamThroughput(ciphers[c]);
    std::printf(" %s[%s]=%.0f MB/s",
                crypto::CipherKindName(ciphers[c]),
                crypto::GetCipherBackend(ciphers[c]).impl,
                throughput[c] / 1e6);
  }
  std::printf("\n\n");
  struct Row {
    const char* name;
    std::optional<crypto::EgConfig> eg;
  };
  const Row rows[] = {
      {"pairwise master", std::nullopt},
      {"EG P=10000 m=75", crypto::EgConfig{10000, 75}},
      {"EG P=10000 m=150", crypto::EgConfig{10000, 150}},
      {"EG P=1000 m=75", crypto::EgConfig{1000, 75}},
  };
  stats::Table table({"scheme", "keyed links", "participate", "accuracy",
                      "capture exposure", "P_disclose", "ks B/node",
                      "xtea uJ/rnd", "aesni uJ/rnd", "chacha uJ/rnd"});
  for (const Row& row : rows) {
    struct MappedOutcome {
      bool ok = false;
      SchemeOutcome scheme;
    };
    const auto outcomes = engine.Map<MappedOutcome>(runs, [&](size_t r) {
      MappedOutcome mapped;
      mapped.ok = RunScheme(0x4B + r * 53, row.eg ? &*row.eg : nullptr,
                            mapped.scheme) == 0;
      return mapped;
    });
    stats::Summary keyed, part, acc, expo, leak, ks_bytes;
    for (const MappedOutcome& mapped : outcomes) {
      if (!mapped.ok) return 1;
      const SchemeOutcome& out = mapped.scheme;
      keyed.Add(out.keyed_fraction);
      part.Add(out.participation);
      acc.Add(out.accuracy);
      expo.Add(out.capture_exposure);
      leak.Add(out.disclosure);
      ks_bytes.Add(out.keystream_bytes_per_node);
    }
    // µJ/node/round = keystream seconds at the measured rate x active
    // power. Cipher does not change the bytes, only the rate.
    std::vector<std::string> cells = {
        row.name, stats::FormatDouble(keyed.mean(), 3),
        stats::FormatDouble(part.mean(), 3),
        stats::FormatDouble(acc.mean(), 3),
        stats::FormatDouble(expo.mean(), 4),
        stats::FormatDouble(leak.mean(), 4),
        stats::FormatDouble(ks_bytes.mean(), 1)};
    for (size_t c = 0; c < std::size(ciphers); ++c) {
      cells.push_back(stats::FormatDouble(
          ks_bytes.mean() / throughput[c] * kActivePowerWatts * 1e6, 4));
    }
    table.AddRow(cells);
  }
  table.PrintTo(stdout);
  std::printf(
      "\nPairwise keys every link and leaks only captured nodes' own\n"
      "links; EG predistribution trades keyable-link coverage (hurting\n"
      "slice-target choice) against storage, and captured rings expose\n"
      "third-party links — the §IV-A-3 discussion, quantified. The\n"
      "energy columns convert each scheme's per-node keystream bytes\n"
      "into cipher time at the measured rates (30 mW active): fewer\n"
      "keyed links mean fewer sealed slices AND a cheaper round, and a\n"
      "faster backend shrinks the crypto term for every scheme.\n");
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
