// Property tests for the arena/free-list pools (util/pool.h) backing
// scheduler-event allocation. The randomized interleavings run
// under the IPDA_SANITIZE=address CI job, so slot reuse bugs (overlap,
// use-after-recycle, leaked live objects) surface as ASan reports even
// when the accounting assertions happen to pass.

#include "util/pool.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ipda::util {
namespace {

struct Tracked {
  explicit Tracked(int* counter, uint64_t tag = 0)
      : counter(counter), tag(tag) {
    ++*counter;
  }
  ~Tracked() { --*counter; }
  int* counter;
  uint64_t tag;
  uint64_t payload[4] = {};  // Big enough to catch slot overlap.
};

TEST(ObjectPool, RoundTripAndAccounting) {
  ObjectPool<Tracked> pool(4);
  int alive = 0;
  Tracked* a = pool.New(&alive, 1);
  Tracked* b = pool.New(&alive, 2);
  EXPECT_EQ(alive, 2);
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(a->tag, 1u);
  EXPECT_EQ(b->tag, 2u);
  pool.Delete(a);
  EXPECT_EQ(alive, 1);
  EXPECT_EQ(pool.live(), 1u);
  pool.Delete(b);
  EXPECT_EQ(alive, 0);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(ObjectPool, RecyclesSlotsInsteadOfGrowing) {
  ObjectPool<Tracked> pool(8);
  int alive = 0;
  std::vector<Tracked*> objects;
  for (int i = 0; i < 8; ++i) objects.push_back(pool.New(&alive));
  const size_t capacity = pool.capacity();
  for (Tracked* t : objects) pool.Delete(t);
  // Churning through as many again must reuse the freed slots.
  for (int round = 0; round < 10; ++round) {
    Tracked* t = pool.New(&alive);
    pool.Delete(t);
  }
  EXPECT_EQ(pool.capacity(), capacity);
  EXPECT_EQ(alive, 0);
}

TEST(ObjectPool, DestroysObjectsStillLiveAtTeardown) {
  // A scheduler torn down with pending events leaks neither memory nor
  // destructors; the pool sweeps surviving objects.
  int alive = 0;
  {
    ObjectPool<Tracked> pool;
    pool.New(&alive);
    pool.New(&alive);
    EXPECT_EQ(alive, 2);
  }
  EXPECT_EQ(alive, 0);
}

TEST(ObjectPool, RandomizedChurnKeepsObjectsDisjoint) {
  // Interleave allocs and frees at random; every live object must keep
  // its distinct tag (catches overlapping or prematurely recycled slots,
  // and ASan sees any out-of-slot write).
  ObjectPool<Tracked> pool(2);
  Rng rng(0xB0071);
  int alive = 0;
  std::vector<Tracked*> live;
  uint64_t next_tag = 1;
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      Tracked* t = pool.New(&alive, next_tag++);
      t->payload[0] = t->tag;
      t->payload[3] = ~t->tag;
      live.push_back(t);
    } else {
      const size_t victim = rng.UniformUint64(live.size());
      Tracked* t = live[victim];
      ASSERT_EQ(t->payload[0], t->tag);
      ASSERT_EQ(t->payload[3], ~t->tag);
      pool.Delete(t);
      live[victim] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(pool.live(), live.size());
    ASSERT_EQ(alive, static_cast<int>(live.size()));
  }
  std::set<uint64_t> tags;
  for (Tracked* t : live) {
    EXPECT_EQ(t->payload[0], t->tag);
    EXPECT_TRUE(tags.insert(t->tag).second) << "duplicate live tag";
    pool.Delete(t);
  }
  EXPECT_EQ(pool.live(), 0u);
}

TEST(ObjectPoolDeathTest, DoubleFreeIsACheckFailure) {
  ObjectPool<Tracked> pool;
  int alive = 0;
  Tracked* t = pool.New(&alive);
  pool.Delete(t);
  EXPECT_DEATH(pool.Delete(t), "CHECK failed");
}

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
