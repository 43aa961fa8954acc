// §IV-A spot claims: the paper's worked examples, recomputed.
//   1. Coverage example (N=1000, d=10) — including the arithmetic slip in
//      the paper's Eq. (10) example, cross-checked by Monte-Carlo.
//   2. Privacy example (l=3, d=10, p_x=0.1 -> 0.001).
//   3. Communication overhead ratio (2l+1)/2.
//   4. E[n_l(i)] = 2l-1 on regular graphs.

#include <cstdio>

#include "analysis/coverage.h"
#include "analysis/overhead.h"
#include "analysis/privacy.h"
#include "bench_common.h"
#include "net/topology.h"
#include "stats/table.h"
#include "util/random.h"

namespace ipda::bench {
namespace {

int Run(int argc, char** argv) {
  // Analytic bench: no Monte-Carlo fan-out, but accept the shared flags
  // so every bench binary has the same command line.
  (void)ParseBenchOptions(argc, argv, BenchKind::kAnalytic);
  PrintHeader("§IV-A — analytic spot claims", "paper's worked examples");

  // 1. Coverage (N=1000, d=10, pb=pr=0.5).
  auto ring = net::Topology::RegularRing(1000, 10);
  if (!ring.ok()) return 1;
  util::Rng rng(0xC0FFEE);
  const auto mc = analysis::SimulateCoverage(*ring, 0.5, 0.5, 2000, rng);
  std::printf(
      "1. Coverage example (N=1000, d=10, pb=pr=0.5)\n"
      "   paper claims:                Phi(G) >= 0.999\n"
      "   Eq.(10) literal bound:       %.3f   (vacuous: N*p_iso = %.2f)\n"
      "   expected covered fraction:   %.5f (the number the paper's\n"
      "                                       example actually computes)\n"
      "   Monte-Carlo covered fraction:%.5f\n"
      "   Monte-Carlo P(all covered):  %.3f\n"
      "   degree needed for bound>=0.999: d=21 -> %.5f\n",
      analysis::RegularCoverageLowerBound(1000, 10, 0.5, 0.5),
      1000.0 * analysis::NodeIsolationProbability(10, 0.5, 0.5),
      analysis::RegularExpectedCoveredFraction(10, 0.5, 0.5),
      mc.mean_covered_fraction, mc.phi,
      analysis::RegularCoverageLowerBound(1000, 21, 0.5, 0.5));

  // 2. Privacy (l=3, d-regular, px=0.1).
  std::printf(
      "\n2. Privacy example (regular graph, l=3, p_x=0.1)\n"
      "   paper claims:  P_disclose = 0.001\n"
      "   ours (Eq.11):  P_disclose = %.5f\n",
      analysis::RegularDisclosureProbability(0.1, 3));

  // 3. Overhead ratios.
  stats::Table table({"l", "msgs/node", "ratio vs TAG",
                      "byte ratio (our frames)"});
  for (uint32_t l = 1; l <= 4; ++l) {
    const auto bytes = analysis::EstimateBytes(l, 1, true);
    table.AddRow({stats::FormatInt(l),
                  stats::FormatDouble(analysis::IpdaMessagesPerNode(l), 0),
                  stats::FormatDouble(analysis::OverheadRatio(l), 2),
                  stats::FormatDouble(bytes.byte_ratio, 2)});
  }
  std::printf("\n3. Communication overhead, (2l+1)/2 (paper Fig. 4):\n");
  table.PrintTo(stdout);

  // 4. Incoming slice links on regular graphs.
  auto ring12 = net::Topology::RegularRing(60, 12);
  if (!ring12.ok()) return 1;
  std::printf(
      "\n4. E[n_l(i)] on a 12-regular graph (paper: 2l-1)\n"
      "   l=2 -> %.2f (expected 3)   l=3 -> %.2f (expected 5)\n",
      analysis::ExpectedIncomingSliceLinks(*ring12, 0, 2),
      analysis::ExpectedIncomingSliceLinks(*ring12, 0, 3));
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
