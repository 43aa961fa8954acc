// Fig. 7: bandwidth consumption (total bytes transmitted network-wide per
// aggregation round) vs network size for TAG, iPDA l=1, and iPDA l=2.
// Paper shape: iPDA(l)/TAG ≈ (2l+1)/2 in messages once the network is
// dense; below N≈300 iPDA's totals dip because non-participating nodes
// stay silent.

#include <cstdio>
#include <string>
#include <vector>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "analysis/overhead.h"
#include "bench_common.h"
#include "obs/metrics.h"
#include "stats/series.h"

namespace ipda::bench {
namespace {

int Run(int argc, char** argv) {
  const BenchOptions options =
      ParseBenchOptions(argc, argv, BenchKind::kSweep);
  const size_t runs = RunsPerPoint();
  const std::vector<size_t> sizes = NetworkSizes();
  SweepSpec spec{"fig7_overhead", 0, "", {}, false};
  for (size_t n : sizes) {
    spec.cells.push_back({"N=" + std::to_string(n), runs, [n](size_t r) {
                            return 0xF16'7u + r * 104729 + n;
                          }, ""});
  }
  const SweepResult result = RunSweep(
      options, argv[0], spec,
      [&](const RunContext& ctx) -> util::Result<Record> {
        auto config = PaperRunConfig(sizes[ctx.cell], ctx.seed);
        config.control = ctx.control;
        auto function = agg::MakeCount();
        auto field = agg::MakeConstantField(1.0);

        // Protocol traffic only: the paper's Fig. 4 message accounting
        // excludes MAC acknowledgements. net.protocol_* are exactly that
        // (counted minus the ACK subset at collection, DESIGN.md §11), so
        // the bench reads the same registry `--metrics` files expose —
        // the two surfaces reconcile by construction.
        Record record;
        const auto traffic = [&record](const std::string& arm,
                                       const obs::Snapshot& metrics) {
          record.Set(arm + "_bytes",
                     metrics.CounterOr("net.protocol_bytes", 0.0));
          record.Set(arm + "_msgs",
                     metrics.CounterOr("net.protocol_frames", 0.0));
        };
        IPDA_ASSIGN_OR_RETURN(const agg::TagRunResult tag,
                              agg::RunTag(config, *function, *field));
        traffic("tag", tag.metrics);
        for (uint32_t l : {1u, 2u}) {
          IPDA_ASSIGN_OR_RETURN(
              const agg::IpdaRunResult ipda,
              agg::RunIpda(config, *function, *field,
                           PaperIpdaConfig(l)));
          traffic("ipda" + std::to_string(l), ipda.metrics);
        }
        return record;
      });

  PrintHeader("Fig. 7 — bandwidth consumption: iPDA vs TAG",
              "total bytes transmitted per round vs network size");
  stats::SeriesSet series;
  stats::SeriesSet ratios;
  for (size_t s = 0; s < sizes.size(); ++s) {
    const auto mean = [&](const char* field) {
      return result.Get(s, field).summary.mean();
    };
    const double tag_bytes = mean("tag_bytes"), tag_msgs = mean("tag_msgs");
    const double ipda1_bytes = mean("ipda1_bytes");
    const double ipda1_msgs = mean("ipda1_msgs");
    const double ipda2_bytes = mean("ipda2_bytes");
    const double ipda2_msgs = mean("ipda2_msgs");
    const double x = static_cast<double>(sizes[s]);
    series.Add("TAG", x, tag_bytes);
    series.Add("iPDA l=1", x, ipda1_bytes);
    series.Add("iPDA l=2", x, ipda2_bytes);
    ratios.Add("bytes l=1/TAG", x, ipda1_bytes / tag_bytes);
    ratios.Add("bytes l=2/TAG", x, ipda2_bytes / tag_bytes);
    ratios.Add("msgs l=1/TAG", x, ipda1_msgs / tag_msgs);
    ratios.Add("msgs l=2/TAG", x, ipda2_msgs / tag_msgs);
  }
  std::printf("Total protocol bytes transmitted (mean over runs, MAC ACKs "
              "excluded):\n");
  series.ToTable("N", 0).PrintTo(stdout);
  std::printf("\nOverhead ratios (theory: msgs (2l+1)/2 -> l=1: %.1f, "
              "l=2: %.1f):\n",
              analysis::OverheadRatio(1), analysis::OverheadRatio(2));
  ratios.ToTable("N", 2).PrintTo(stdout);
  const auto breakdown = analysis::EstimateBytes(2, 1, true);
  std::printf("\nFrame-model byte prediction (l=2): iPDA/TAG = %.2f\n",
              breakdown.byte_ratio);
  PrintFooter();
  return 0;
}

}  // namespace
}  // namespace ipda::bench

int main(int argc, char** argv) { return ipda::bench::Run(argc, argv); }
