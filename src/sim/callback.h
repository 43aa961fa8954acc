// Small-buffer-optimized event closure for the discrete-event kernel.
//
// std::function heap-allocates any capture beyond ~16 bytes, which made
// every scheduled delivery/timer event a malloc. Callback stores captures
// up to kInlineBytes directly inside the object; larger captures go to the
// scheduler's BytePool. Move-only, like the closures it carries.

#ifndef IPDA_SIM_CALLBACK_H_
#define IPDA_SIM_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.h"
#include "util/pool.h"

namespace ipda::sim {

class Callback {
 public:
  // Fits every steady-state capture in the simulator (the largest is a
  // MAC ACK lambda at 64 bytes, which deliberately exercises the pool
  // path; delivery events are [this, id, u64, shared_ptr] = 40 bytes).
  static constexpr size_t kInlineBytes = 48;

  Callback() = default;

  // Oversized captures recycle through `pool`.
  template <typename F>
  Callback(util::BytePool* pool, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "Callback requires a void() callable");
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      void* mem = pool->Allocate(sizeof(Fn));
      ::new (mem) Fn(std::forward<F>(fn));
      ::new (static_cast<void*>(buf_)) Outline{mem, pool};
      ops_ = &kOutlineOps<Fn>;
    }
  }

  Callback(Callback&& other) noexcept { MoveFrom(std::move(other)); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { Reset(); }

  void operator()() {
    IPDA_DCHECK(ops_ != nullptr);
    ops_->invoke(target());
  }

  explicit operator bool() const { return ops_ != nullptr; }

  // Destroys the held callable (releasing any pool block).
  void Reset() {
    if (ops_ == nullptr) return;
    ops_->destroy(target());
    if (!ops_->inline_stored) {
      Outline& out = outline();
      out.pool->Deallocate(out.obj, ops_->size);
    }
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* obj);
    void (*relocate)(void* from, void* to);  // Move-construct + destroy src.
    void (*destroy)(void* obj);
    size_t size;          // sizeof the callable (pool deallocation key).
    bool inline_stored;
  };
  struct Outline {
    void* obj;
    util::BytePool* pool;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* obj) { (*static_cast<Fn*>(obj))(); },
      [](void* from, void* to) {
        Fn* src = static_cast<Fn*>(from);
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* obj) { static_cast<Fn*>(obj)->~Fn(); },
      sizeof(Fn),
      /*inline_stored=*/true,
  };

  template <typename Fn>
  static constexpr Ops kOutlineOps = {
      [](void* obj) { (*static_cast<Fn*>(obj))(); },
      nullptr,  // Outline moves steal the pointer; no relocation needed.
      [](void* obj) { static_cast<Fn*>(obj)->~Fn(); },
      sizeof(Fn),
      /*inline_stored=*/false,
  };

  Outline& outline() { return *std::launder(reinterpret_cast<Outline*>(buf_)); }

  void* target() {
    return ops_->inline_stored ? static_cast<void*>(buf_) : outline().obj;
  }

  void MoveFrom(Callback&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) return;
    if (ops_->inline_stored) {
      ops_->relocate(other.buf_, buf_);
    } else {
      ::new (static_cast<void*>(buf_)) Outline(other.outline());
    }
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ipda::sim

#endif  // IPDA_SIM_CALLBACK_H_
