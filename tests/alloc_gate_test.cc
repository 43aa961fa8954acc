// Heap-allocation gate for iPDA rounds (DESIGN.md §9, "Allocation
// discipline"). This binary replaces the global operator new with a
// counting one and runs the cost gate's two single-sink configs: the
// paper's N=600 COUNT round (seed 600001) and the N=300 sweep cell under
// crashes, loss and churn (seed 300001). A sent slice, HELLO or partial may
// allocate only the payload buffer it hands to the MAC; everything else on
// the message path reuses per-protocol scratch, and a mobility step
// re-links without rebuilding lists (DESIGN.md §12). What remains is that
// one buffer per message plus per-round setup and teardown (network, MACs,
// key provisioning, protocol state). A round fails the gate if it
// allocates more than its bound; the count is printed either way.
//
// A change that lowers a count should lower its bound with it, recording
// the before/after figures.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "agg/reading.h"
#include "agg/runner.h"
#include "fault/churn_plan.h"
#include "fault/fault_plan.h"

// ASan and TSan own operator new/delete: replacing them here would bypass
// the sanitizer's checks for the whole binary, so those builds skip.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IPDA_ALLOC_GATE_COUNTS 0
#else
#define IPDA_ALLOC_GATE_COUNTS 1
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

#if IPDA_ALLOC_GATE_COUNTS
// The nothrow and array forms of the default library forward here.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace ipda {
namespace {

// Measured: 10,723 (the same in Release and Debug builds); 10,733 before
// the channel kept per-sender fan-out tables; 42,278 before the message path stopped allocating (5 allocations to
// send a slice, 2 to receive one). The slack is under one allocation per
// aggregator.
constexpr uint64_t kBound = 10950;

// The sweep cell (N=300 under crashes, loss and churn; see
// SweepRoundStaysUnderBound). Measured: 10,781; 10,922 before a patched
// neighbor list got spare room for the edges it gains; 25,382 before
// mobility re-links stopped rebuilding each moved node's list (about six
// allocations per refresh, ~2,300 refreshes a round). The slack is under
// one allocation per node.
constexpr uint64_t kSweepBound = 11050;

// The paper's §IV deployment: 400×400 m, 50 m range, 1 Mbps.
agg::RunConfig PaperConfig() {
  agg::RunConfig config;
  config.deployment.area = net::Area{400.0, 400.0};
  config.deployment.node_count = 600;
  config.range = 50.0;
  config.phy.data_rate_bps = 1e6;
  config.seed = 600001;
  return config;
}

agg::IpdaConfig PaperIpda() {
  agg::IpdaConfig config;
  config.slice_count = 2;
  config.slice_range = 1.0;
  return config;
}

// Runs `round` once and checks its allocation count against `bound`.
template <typename Round>
void ExpectRoundUnderBound(const char* name, uint64_t bound, Round round) {
  const uint64_t before = g_allocations.load();
  auto run = round();
  const uint64_t count = g_allocations.load() - before;

  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::printf("alloc_gate: %s allocated %llu times; bound %llu\n", name,
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(bound));
  ::testing::Test::RecordProperty("allocations", static_cast<int>(count));
  EXPECT_LE(count, bound);
}

TEST(AllocGate, CounterSeesOperatorNew) {
  if (!IPDA_ALLOC_GATE_COUNTS) {
    GTEST_SKIP() << "sanitizer build: operator new is the sanitizer's";
  }
  const uint64_t before = g_allocations.load();
  auto boxed = std::make_unique<int>(7);
  EXPECT_EQ(g_allocations.load() - before, 1u);
  EXPECT_EQ(*boxed, 7);
}

TEST(AllocGate, PaperRoundStaysUnderBound) {
  if (!IPDA_ALLOC_GATE_COUNTS) {
    GTEST_SKIP() << "sanitizer build: operator new is the sanitizer's";
  }
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  const agg::RunConfig config = PaperConfig();
  const agg::IpdaConfig ipda = PaperIpda();
  ExpectRoundUnderBound("paper round (N=600, seed 600001)", kBound, [&] {
    return agg::RunIpda(config, *function, *field, ipda);
  });
}

// cost_gate_test's sweep cell (roundbench's sweep_faults_churn_n300):
// N=300, seed 300001, crashes and link loss, leave/rejoin churn and
// random-waypoint mobility, with slice retargeting, parent failover and
// churn repair.
TEST(AllocGate, SweepRoundStaysUnderBound) {
  if (!IPDA_ALLOC_GATE_COUNTS) {
    GTEST_SKIP() << "sanitizer build: operator new is the sanitizer's";
  }
  auto function = agg::MakeCount();
  auto field = agg::MakeConstantField(1.0);
  agg::RunConfig config = PaperConfig();
  config.deployment.node_count = 300;
  config.seed = 300001;
  auto faults = fault::ParseFaultSpec("crash-frac=0.05@4.4,loss=0.05");
  auto churn = fault::ParseChurnSpec("churn=0.5:1,mobility=0.25:10");
  ASSERT_TRUE(faults.ok() && churn.ok());
  config.faults = *faults;
  config.churn = *churn;
  agg::IpdaConfig ipda = PaperIpda();
  ipda.retarget_slices = true;
  ipda.parent_failover = true;
  ipda.churn_response = agg::ChurnResponse::kRepair;
  ExpectRoundUnderBound("sweep round (N=300, seed 300001)", kSweepBound, [&] {
    return agg::RunIpda(config, *function, *field, ipda);
  });
}

}  // namespace
}  // namespace ipda
