#include "sim/scheduler.h"

#include <utility>

#include "util/check.h"

namespace ipda::sim {

// 4-ary layout: children of i are 4i+1..4i+4, parent is (i-1)/4. Shallower
// than binary for the same size, so a sift touches fewer cache lines.
namespace {
constexpr size_t kArity = 4;
}  // namespace

EventId Scheduler::PushEvent(SimTime at, Callback cb) {
  IPDA_CHECK_GE(at, now_);
  uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    IPDA_CHECK_LT(slots_.size(), static_cast<size_t>(UINT32_MAX) - 1);
    slots_.emplace_back();
    slot = static_cast<uint32_t>(slots_.size() - 1);
  }
  Slot& s = slots_[slot];
  s.fn = std::move(cb);
  s.live = true;
  heap_.push_back(HeapEntry{at, next_seq_++, slot, s.gen});
  SiftUp(heap_.size() - 1);
  ++live_;
  return (static_cast<uint64_t>(s.gen) << 32) |
         static_cast<uint64_t>(slot + 1);
}

void Scheduler::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.Reset();
  s.live = false;
  // Invalidates every outstanding handle and heap entry naming this slot.
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
}

bool Scheduler::Cancel(EventId id) {
  const uint32_t low = static_cast<uint32_t>(id);
  if (low == 0) return false;
  const uint32_t slot = low - 1;
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  if (!s.live || s.gen != static_cast<uint32_t>(id >> 32)) return false;
  FreeSlot(slot);
  --live_;
  const size_t stale = heap_.size() - live_;
  if (stale >= kPruneThreshold && stale * 2 >= heap_.size()) PruneStale();
  return true;
}

void Scheduler::SiftUp(size_t i) {
  const HeapEntry moving = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Earlier(moving, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void Scheduler::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const HeapEntry moving = heap_[i];
  for (;;) {
    const size_t first = kArity * i + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t last = first + kArity < n ? first + kArity : n;
    for (size_t c = first + 1; c < last; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    if (!Earlier(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

void Scheduler::PopTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (heap_.size() > 1) SiftDown(0);
}

void Scheduler::DropStaleHead() {
  while (!heap_.empty() && !EntryLive(heap_.front())) {
    PopTop();
    ++stale_skips_;
  }
}

void Scheduler::PruneStale() {
  ++prune_passes_;
  size_t out = 0;
  for (const HeapEntry& e : heap_) {
    if (EntryLive(e)) heap_[out++] = e;
  }
  heap_.resize(out);
  if (out > 1) {
    // Floyd heapify from the last parent down; leaves are already heaps.
    for (size_t i = (out - 2) / kArity + 1; i-- > 0;) SiftDown(i);
  }
  IPDA_DCHECK(heap_.size() == live_);
}

void Scheduler::DispatchTop() {
  const HeapEntry top = heap_.front();
  PopTop();
  IPDA_CHECK_GE(top.at, now_);
  now_ = top.at;
  position_seq_ = top.seq;
  ++events_run_;
  Slot& s = slots_[top.slot];
  // Recycle the slot before running: the handler may schedule new events
  // and should find a warm free list.
  Callback fn = std::move(s.fn);
  FreeSlot(top.slot);
  --live_;
  fn();
}

bool Scheduler::CheckInterrupt() {
  if (event_budget_ != 0 && events_run_ >= event_budget_) {
    interrupt_cause_ = InterruptCause::kEventBudget;
    return true;
  }
  if (cancel_ != nullptr && cancel_->cancelled()) {
    interrupt_cause_ = InterruptCause::kCancel;
    return true;
  }
  return false;
}

bool Scheduler::RunOne() {
  interrupt_cause_ = InterruptCause::kNone;
  DropStaleHead();
  if (heap_.empty()) return false;
  if (CheckInterrupt()) return false;
  DispatchTop();
  return true;
}

size_t Scheduler::RunUntil(SimTime deadline) {
  interrupt_cause_ = InterruptCause::kNone;
  size_t n = 0;
  for (;;) {
    DropStaleHead();
    if (heap_.empty() || heap_.front().at > deadline) break;
    if (CheckInterrupt()) return n;
    DispatchTop();
    ++n;
  }
  if (unqueued_ != nullptr) {
    const EventKey last = unqueued_->ApplyUntil(deadline);
    if (position() < last) {
      now_ = last.at;
      position_seq_ = last.seq;
    }
  }
  return n;
}

void Scheduler::SetUnqueuedEvents(UnqueuedEvents* source) {
  IPDA_CHECK(source == nullptr || unqueued_ == nullptr);
  unqueued_ = source;
}

size_t Scheduler::RunAll() { return RunUntil(kSimTimeNever); }

}  // namespace ipda::sim
