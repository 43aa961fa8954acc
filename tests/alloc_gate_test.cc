// Heap-allocation gate for one iPDA round (DESIGN.md §9, "Allocation
// discipline"). This binary replaces the global operator new with a
// counting one and runs the paper's N=600 COUNT round (seed 600001, the
// cost gate's config). A sent slice, HELLO or partial may allocate only the
// payload buffer it hands to the MAC; everything else on the message path
// reuses per-protocol scratch. What remains is that one buffer per message
// plus per-round setup and teardown (network, MACs, key provisioning,
// protocol state). The round fails the gate if it allocates more than
// kBound times; the count is printed either way.
//
// A change that lowers the count should lower kBound with it, recording the
// before/after figures.

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

// Measured: 10,734 (the same in Release and Debug builds); 42,278 before
// the message path stopped allocating (5 allocations to send a slice, 2 to
// receive one). The slack is under one allocation per aggregator.
constexpr uint64_t kBound = 11000;

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

  const uint64_t before = g_allocations.load();
  auto run = agg::RunIpda(config, *function, *field, ipda);
  const uint64_t count = g_allocations.load() - before;

  ASSERT_TRUE(run.ok()) << run.status().ToString();
  std::printf("alloc_gate: paper round (N=600, seed 600001) allocated %llu "
              "times; bound %llu\n",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(kBound));
  RecordProperty("allocations", static_cast<int>(count));
  EXPECT_LE(count, kBound);
}

}  // namespace
}  // namespace ipda
