#include "sim/scheduler.h"

#include <utility>

#include "util/check.h"

namespace ipda::sim {

// 4-ary layout: children of i are 4i+1..4i+4, parent is (i-1)/4. Shallower
// than binary for the same size, so a sift touches fewer cache lines.
namespace {
constexpr size_t kArity = 4;
// Odd, so the multiply step of the dispatch digest is a bijection.
constexpr uint64_t kDigestMul = 0x9E3779B97F4A7C15ull;
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
  Heap& heap = at - now_ >= kFarHorizon ? far_ : near_;
  heap.push_back(HeapEntry{at, next_seq_++, slot, s.gen});
  SiftUp(heap, heap.size() - 1);
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
  const size_t stale = cancelled_pending();
  if (stale >= kPruneThreshold && stale * 2 >= near_.size() + far_.size()) {
    PruneStale();
  }
  return true;
}

void Scheduler::SiftUp(Heap& heap, size_t i) {
  const HeapEntry moving = heap[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Earlier(moving, heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = moving;
}

void Scheduler::SiftDown(Heap& heap, size_t i) {
  const size_t n = heap.size();
  const HeapEntry moving = heap[i];
  for (;;) {
    const size_t first = kArity * i + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t last = first + kArity < n ? first + kArity : n;
    for (size_t c = first + 1; c < last; ++c) {
      if (Earlier(heap[c], heap[best])) best = c;
    }
    if (!Earlier(heap[best], moving)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = moving;
}

void Scheduler::PopTop(Heap& heap) {
  heap.front() = heap.back();
  heap.pop_back();
  if (heap.size() > 1) SiftDown(heap, 0);
}

void Scheduler::PruneHeap(Heap& heap) {
  size_t out = 0;
  for (const HeapEntry& e : heap) {
    if (EntryLive(e)) heap[out++] = e;
  }
  heap.resize(out);
  if (out > 1) {
    // Floyd heapify from the last parent down; leaves are already heaps.
    for (size_t i = (out - 2) / kArity + 1; i-- > 0;) SiftDown(heap, i);
  }
}

void Scheduler::PruneStale() {
  ++prune_passes_;
  PruneHeap(near_);
  PruneHeap(far_);
  IPDA_DCHECK(near_.size() + far_.size() == live_);
}

Scheduler::Queue Scheduler::Earliest(EventKey& key) {
  const EventKey source =
      unqueued_ != nullptr ? unqueued_->NextKey() : kNoEventKey;
  for (;;) {
    Heap* heap = nullptr;
    if (!near_.empty()) heap = &near_;
    if (!far_.empty() && (heap == nullptr || Earlier(far_[0], near_[0]))) {
      heap = &far_;
    }
    if (heap != nullptr) {
      const HeapEntry& top = heap->front();
      if (EventKey{top.at, top.seq} < source) {
        if (!EntryLive(top)) {
          PopTop(*heap);
          ++stale_skips_;
          continue;
        }
        key = {top.at, top.seq};
        return heap == &near_ ? Queue::kNear : Queue::kFar;
      }
    }
    key = source;
    return source < kNoEventKey ? Queue::kSource : Queue::kNone;
  }
}

void Scheduler::Dispatch(Queue queue, EventKey key) {
  IPDA_CHECK_GE(key.at, now_);
  now_ = key.at;
  position_seq_ = key.seq;
  ++events_run_;
  digest_ = ((digest_ ^ static_cast<uint64_t>(key.at)) * kDigestMul) ^ key.seq;
  if (queue == Queue::kSource) {
    unqueued_->RunNext();
    return;
  }
  Heap& heap = queue == Queue::kNear ? near_ : far_;
  const uint32_t slot = heap.front().slot;
  PopTop(heap);
  // Recycle the slot before running: the handler may schedule new events
  // and should find a warm free list.
  Callback fn = std::move(slots_[slot].fn);
  FreeSlot(slot);
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
  EventKey key;
  const Queue queue = Earliest(key);
  if (queue == Queue::kNone) return false;
  if (CheckInterrupt()) return false;
  Dispatch(queue, key);
  return true;
}

size_t Scheduler::RunUntil(SimTime deadline) {
  interrupt_cause_ = InterruptCause::kNone;
  size_t n = 0;
  for (;;) {
    EventKey key;
    const Queue queue = Earliest(key);
    if (queue == Queue::kNone || key.at > deadline) break;
    if (CheckInterrupt()) return n;
    Dispatch(queue, key);
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
