// Property tests for the free-list pool (util/pool.h) backing
// scheduler-event allocation. The randomized interleavings run
// under the IPDA_SANITIZE=address CI job, so block reuse bugs (overlap,
// use-after-recycle, leaked live blocks) surface as ASan reports even
// when the accounting assertions happen to pass.

#include "util/pool.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ipda::util {
namespace {

TEST(BytePool, SizeClassRoundTrip) {
  BytePool pool;
  for (size_t bytes : {1u, 31u, 32u, 33u, 64u, 100u, 512u, 1024u}) {
    void* p = pool.Allocate(bytes);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xAB, bytes);  // ASan verifies the block is real.
    EXPECT_EQ(pool.live_blocks(), 1u);
    pool.Deallocate(p, bytes);
    EXPECT_EQ(pool.live_blocks(), 0u);
  }
}

TEST(BytePool, OversizeFallsThroughToOperatorNew) {
  BytePool pool;
  void* p = pool.Allocate(4096);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xCD, 4096);
  EXPECT_EQ(pool.live_blocks(), 1u);
  pool.Deallocate(p, 4096);
  EXPECT_EQ(pool.live_blocks(), 0u);
}

TEST(BytePool, RandomizedMixedClassChurn) {
  BytePool pool;
  Rng rng(0xB0072);
  struct Block {
    unsigned char* p;
    size_t bytes;
    unsigned char fill;
  };
  std::vector<Block> live;
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const size_t bytes = 1 + rng.UniformUint64(2048);
      auto* p = static_cast<unsigned char*>(pool.Allocate(bytes));
      const auto fill = static_cast<unsigned char>(step);
      std::memset(p, fill, bytes);
      live.push_back({p, bytes, fill});
    } else {
      const size_t victim = rng.UniformUint64(live.size());
      Block block = live[victim];
      // The block's bytes must be untouched by other allocations.
      for (size_t i = 0; i < block.bytes; ++i) {
        ASSERT_EQ(block.p[i], block.fill) << "clobbered at " << i;
      }
      pool.Deallocate(block.p, block.bytes);
      live[victim] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(pool.live_blocks(), live.size());
  }
  for (const Block& block : live) pool.Deallocate(block.p, block.bytes);
  EXPECT_EQ(pool.live_blocks(), 0u);
}

}  // namespace
}  // namespace ipda::util
