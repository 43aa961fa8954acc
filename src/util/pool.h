// Free-list pool for hot-path allocations.
//
// A simulation round allocates the same few shapes over and over, such as
// the closure of every scheduler event. General-purpose malloc pays
// lock/metadata costs per call and scatters these short-lived objects
// across the heap; the pool below recycles fixed-size blocks from chunked
// slabs, so steady-state allocation is a free-list pop and locality
// follows the simulation's churn.
//
// The pool is single-threaded by design, matching the shared-nothing run
// model: every Simulator owns its own, so parallel sweeps never contend.
// Freeing more blocks than are live is an IPDA_CHECK failure, not
// corruption (tests/util_pool_test.cc exercises randomized interleavings
// under ASan).

#ifndef IPDA_UTIL_POOL_H_
#define IPDA_UTIL_POOL_H_

#include <cstddef>
#include <new>
#include <vector>

#include "util/check.h"

namespace ipda::util {

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
    if (cls == kClassCount) {
      ++oversize_live_;
      return ::operator new(bytes);
    }
    if (free_[cls] == nullptr) Grow(cls);
    FreeNode* node = free_[cls];
    free_[cls] = node->next;
    ++live_;
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
};

}  // namespace ipda::util

#endif  // IPDA_UTIL_POOL_H_
