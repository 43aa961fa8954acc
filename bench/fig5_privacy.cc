// Fig. 5: capacity of privacy preservation — average P_disclose vs. the
// per-link compromise probability p_x, for 1000-node deployments with
// average degree ~7 and ~17, and slice counts l = 2 and l = 3.
//
// Reproduced two ways:
//   (1) the paper's closed form (Eq. 11) averaged over a concrete random
//       topology, which is exactly what the paper plots; and
//   (2) a message-level Monte-Carlo: real protocol runs tapped by the
//       attack::Eavesdropper under sampled broken-link sets, swept as
//       one bench sweep (bench_common.h) of independent trials.
// Paper shape: curves grow superlinearly in p_x, l=3 sits below l=2, and
// density barely matters ("insensitive to network density").

#include <cmath>
#include <cstdio>
#include <iterator>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "analysis/privacy.h"
#include "attack/eavesdropper.h"
#include "bench_common.h"
#include "crypto/link_security.h"
#include "stats/series.h"
#include "util/random.h"

namespace ipda::bench {
namespace {

// Side length of the square giving the target mean degree for 1000 nodes
// with 50 m range: d = (N-1) * pi r^2 / A.
double SideForDegree(double degree) {
  const double n = 1000.0;
  const double r = 50.0;
  const double area = (n - 1.0) * 3.14159265358979 * r * r / degree;
  return std::sqrt(area);
}

struct RecordedSlice {
  net::NodeId from;
  net::NodeId to;
  agg::TreeColor color;
  agg::Vector value;
};

// One protocol run's slice traffic on a degree-17 deployment; broken-
// link sets are then resampled over it cheaply.
struct SliceTrace {
  size_t node_count = 0;
  std::vector<crypto::Link> links;
  std::vector<RecordedSlice> recorded;
};

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  const size_t runs = RunsPerPoint();
  const uint32_t slice_counts[] = {2u, 3u};
  const double pxs[] = {0.02, 0.05, 0.08, 0.1};

  // Part 2's message-level Monte-Carlo: record each l's slice traffic
  // once, then sweep independent broken-link trials over the trace.
  const double side = SideForDegree(17.0);
  std::vector<SliceTrace> traces;
  for (uint32_t l : slice_counts) {
    agg::RunConfig config = PaperRunConfig(1000, 0xF16'5u + l);
    config.deployment.area = net::Area{side, side};
    auto topology = agg::BuildRunTopology(config);
    if (!topology.ok()) return 1;
    SliceTrace& trace = traces.emplace_back();
    trace.node_count = topology->node_count();
    for (net::NodeId a = 0; a < topology->node_count(); ++a) {
      for (net::NodeId b : topology->neighbors(a)) {
        if (a < b) trace.links.emplace_back(a, b);
      }
    }
    auto function = agg::MakeCount();
    auto field = agg::MakeConstantField(1.0);
    agg::IpdaConfig ipda = PaperIpdaConfig(l);
    ipda.impatient_join = true;  // Keep participation high at this scale.
    agg::IpdaRunHooks hooks;
    hooks.slice_observer = [&trace](net::NodeId from, net::NodeId to,
                                    agg::TreeColor color,
                                    const agg::Vector& value) {
      trace.recorded.push_back({from, to, color, value});
    };
    auto result = agg::RunIpda(config, *function, *field, ipda, hooks);
    if (!result.ok()) return 1;
  }
  // Trial seeds are a pure function of (px, trial, l), so --jobs never
  // changes the mean.
  SweepSpec spec{"fig5_privacy", 0, "", {}, false};
  for (uint32_t l : slice_counts) {
    for (double px : pxs) {
      char label[32];
      std::snprintf(label, sizeof(label), "l=%u,px=%.2f", l, px);
      spec.cells.push_back({label, runs * 4, [px, l](size_t trial) {
                              return util::Mix64(
                                  static_cast<uint64_t>(px * 1e6),
                                  trial * 131 + l);
                            }, ""});
    }
  }
  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [&](const RunContext& ctx) -> util::Result<Record> {
        const SliceTrace& trace = traces[ctx.cell / std::size(pxs)];
        util::Rng rng(ctx.seed);
        auto compromise = crypto::UniformLinkCompromise(
            trace.links.size(), pxs[ctx.cell % std::size(pxs)], rng);
        std::vector<bool> broken(compromise.broken.begin(),
                                 compromise.broken.end());
        attack::Eavesdropper eve(trace.node_count, trace.links, broken);
        auto observer = eve.Observer();
        for (const auto& record : trace.recorded) {
          observer(record.from, record.to, record.color, record.value);
        }
        return Record().Set("rate", eve.Evaluate().disclosure_rate);
      });

  PrintHeader("Fig. 5 — capacity of privacy preservation",
              "average P_disclose vs p_x; degree 7 & 17; l = 2, 3");
  // --- Part 1: Eq. (11) over random topologies (the paper's curves). ---
  stats::SeriesSet analytic;
  for (double degree : {7.0, 17.0}) {
    const double degree_side = SideForDegree(degree);
    agg::RunConfig config = PaperRunConfig(1000, 0xF16'5);
    config.deployment.area = net::Area{degree_side, degree_side};
    auto topology = agg::BuildRunTopology(config);
    if (!topology.ok()) return 1;
    std::printf("degree target %.0f: deployed avg degree %.1f "
                "(side %.0f m)\n",
                degree, topology->AverageDegree(), degree_side);
    for (uint32_t l : slice_counts) {
      char name[64];
      std::snprintf(name, sizeof(name), "deg=%.0f l=%u", degree, l);
      for (double px = 0.01; px <= 0.1001; px += 0.01) {
        analytic.Add(name, px,
                     analysis::AverageDisclosureProbability(*topology, px,
                                                            l));
      }
    }
  }
  std::printf("\nAnalytic (Eq. 11) average P_disclose:\n");
  analytic.ToTable("p_x", 4).PrintTo(stdout);

  // --- Part 2: message-level Monte-Carlo cross-check (degree 17). ---
  std::printf("\nMessage-level Monte-Carlo (protocol runs + eavesdropper"
              ", degree 17):\n");
  stats::SeriesSet empirical;
  for (size_t cell = 0; cell < spec.cells.size(); ++cell) {
    char name[64];
    std::snprintf(name, sizeof(name), "empirical l=%u",
                  slice_counts[cell / std::size(pxs)]);
    empirical.Add(name, pxs[cell % std::size(pxs)],
                  result.Get(cell, "rate").summary.mean());
  }
  empirical.ToTable("p_x", 4).PrintTo(stdout);
  std::printf(
      "\nThe empirical rate sits a small factor above Eq. 11: the paper\n"
      "puts E[n_l(i)] in the exponent, but px^n is convex in n (Jensen),\n"
      "and nodes that happened to receive zero slices need only their\n"
      "l-1 outgoing links broken. The message-level measurement prices\n"
      "that tail in; curve shapes and the l=2 vs l=3 ordering match.\n");
  std::printf("\nPaper spot check: regular graph, l=3, p_x=0.1 -> "
              "P_disclose = %.4f (paper: 0.001)\n",
              analysis::RegularDisclosureProbability(0.1, 3));
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
