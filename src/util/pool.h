// Arena/free-list pools for hot-path allocations.
//
// A simulation round allocates the same few shapes over and over, such as
// the closure of every scheduler event. General-purpose malloc pays
// lock/metadata costs per call and scatters these short-lived objects
// across the heap; the pools below recycle fixed-size slots from chunked
// slabs, so steady-state allocation is a free-list pop and locality
// follows the simulation's churn.
//
// Pools are single-threaded by design, matching the shared-nothing run
// model: every Simulator owns its own pools, so parallel sweeps
// never contend. Double-free and delete-of-foreign-pointer are IPDA_CHECK
// failures, not corruption (tests/util_pool_test.cc exercises this under
// randomized interleavings and ASan).

#ifndef IPDA_UTIL_POOL_H_
#define IPDA_UTIL_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "util/check.h"

namespace ipda::util {

// Typed free-list pool. New() placement-constructs into a recycled slot;
// Delete() destroys and recycles. Slabs grow geometrically and are only
// returned to the OS on pool destruction; objects still live at that
// point are destroyed by the pool (a scheduler torn down with pending
// events must not leak their closures).
template <typename T>
class ObjectPool {
 public:
  explicit ObjectPool(size_t first_chunk = 64) : next_chunk_(first_chunk) {
    IPDA_CHECK_GE(first_chunk, 1u);
  }

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  ~ObjectPool() {
    for (auto& chunk : chunks_) {
      for (size_t i = 0; i < chunk.size; ++i) {
        Slot& slot = chunk.slots[i];
        if (slot.live) Object(&slot)->~T();
      }
    }
  }

  template <typename... Args>
  T* New(Args&&... args) {
    if (free_ == nullptr) Grow();
    Slot* slot = free_;
    free_ = slot->next_free;
    T* object = new (slot->storage) T(std::forward<Args>(args)...);
    slot->live = true;
    ++live_;
    ++new_count_;
    if (live_ > high_water_) high_water_ = live_;
    return object;
  }

  void Delete(T* object) {
    Slot* slot = reinterpret_cast<Slot*>(object);
    // Catches double-free and pointers the pool never handed out (a
    // foreign pointer's flag byte is unlikely to read exactly true, and
    // the slot scan below settles it in debug builds).
    IPDA_CHECK(slot->live);
    slot->live = false;
    object->~T();
    slot->next_free = free_;
    free_ = slot;
    IPDA_CHECK_GT(live_, 0u);
    --live_;
  }

  size_t live() const { return live_; }
  size_t capacity() const { return capacity_; }
  // Lifetime New() calls and the peak concurrent live count; the metrics
  // registry reports these as pool.* counters (DESIGN.md §11).
  uint64_t new_count() const { return new_count_; }
  size_t high_water() const { return high_water_; }

 private:
  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];  // Must stay first.
    Slot* next_free = nullptr;  // Valid only while !live.
    bool live = false;
  };
  struct Chunk {
    std::unique_ptr<Slot[]> slots;
    size_t size = 0;
  };

  static T* Object(Slot* slot) {
    return std::launder(reinterpret_cast<T*>(slot->storage));
  }

  void Grow() {
    Chunk chunk;
    chunk.size = next_chunk_;
    chunk.slots = std::make_unique<Slot[]>(chunk.size);
    for (size_t i = chunk.size; i > 0; --i) {
      chunk.slots[i - 1].next_free = free_;
      free_ = &chunk.slots[i - 1];
    }
    capacity_ += chunk.size;
    next_chunk_ *= 2;
    chunks_.push_back(std::move(chunk));
  }

  std::vector<Chunk> chunks_;
  Slot* free_ = nullptr;
  size_t next_chunk_;
  size_t live_ = 0;
  size_t capacity_ = 0;
  uint64_t new_count_ = 0;
  size_t high_water_ = 0;
};

// Untyped size-class pool: the scheduler's store for closures too large
// for a slot's inline buffer. Requests round up to the next power-of-two
// class (min 32 B); requests beyond the largest class fall through to
// operator new.
class BytePool {
 public:
  BytePool() = default;
  BytePool(const BytePool&) = delete;
  BytePool& operator=(const BytePool&) = delete;

  ~BytePool() {
    for (void* slab : slabs_) ::operator delete(slab);
  }

  void* Allocate(size_t bytes) {
    const size_t cls = ClassIndex(bytes);
    ++alloc_count_;
    if (cls == kClassCount) {
      ++oversize_live_;
      if (live_ + oversize_live_ > high_water_)
        high_water_ = live_ + oversize_live_;
      return ::operator new(bytes);
    }
    if (free_[cls] == nullptr) Grow(cls);
    FreeNode* node = free_[cls];
    free_[cls] = node->next;
    ++live_;
    if (live_ + oversize_live_ > high_water_)
      high_water_ = live_ + oversize_live_;
    return node;
  }

  void Deallocate(void* p, size_t bytes) {
    if (p == nullptr) return;
    const size_t cls = ClassIndex(bytes);
    if (cls == kClassCount) {
      IPDA_CHECK_GT(oversize_live_, 0u);
      --oversize_live_;
      ::operator delete(p);
      return;
    }
    FreeNode* node = static_cast<FreeNode*>(p);
    node->next = free_[cls];
    free_[cls] = node;
    IPDA_CHECK_GT(live_, 0u);
    --live_;
  }

  size_t live_blocks() const { return live_ + oversize_live_; }
  // Slabs allocated so far; flat across a steady-state workload once the
  // free lists are warm (the scheduler stress test asserts exactly that).
  size_t slab_count() const { return slabs_.size(); }
  // Lifetime Allocate() calls and the peak concurrent live-block count;
  // the metrics registry reports these as pool.* counters (DESIGN.md §11).
  uint64_t alloc_count() const { return alloc_count_; }
  size_t high_water() const { return high_water_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static constexpr size_t kMinBlock = 32;
  static constexpr size_t kClassCount = 6;  // 32..1024 B.
  static constexpr size_t kBlocksPerSlab = 64;

  static size_t ClassIndex(size_t bytes) {
    size_t block = kMinBlock;
    for (size_t cls = 0; cls < kClassCount; ++cls, block *= 2) {
      if (bytes <= block) return cls;
    }
    return kClassCount;
  }

  void Grow(size_t cls) {
    const size_t block = kMinBlock << cls;
    unsigned char* slab = static_cast<unsigned char*>(
        ::operator new(block * kBlocksPerSlab));
    slabs_.push_back(slab);
    for (size_t i = kBlocksPerSlab; i > 0; --i) {
      FreeNode* node =
          reinterpret_cast<FreeNode*>(slab + (i - 1) * block);
      node->next = free_[cls];
      free_[cls] = node;
    }
  }

  std::vector<void*> slabs_;
  FreeNode* free_[kClassCount] = {};
  size_t live_ = 0;
  size_t oversize_live_ = 0;
  uint64_t alloc_count_ = 0;
  size_t high_water_ = 0;
};

}  // namespace ipda::util

#endif  // IPDA_UTIL_POOL_H_
