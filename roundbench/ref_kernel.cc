#include "ref_kernel.h"

#include <cstring>
#include <vector>

namespace roundbench {
namespace {

constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ull;
constexpr int kHeapOps = 4000;
constexpr int kHeapSize = 2048;
constexpr int kTableBits = 15;  // 32 Ki slots x 16 B = 512 KiB.
constexpr int kTableInserts = 8000;
constexpr int kTableLookups = 16000;
constexpr int kBranchIters = 20000;

uint64_t Next(uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

struct Slot {
  uint64_t key;
  uint64_t value;
};

struct Scratch {
  std::vector<uint64_t> heap = std::vector<uint64_t>(kHeapSize + 1);
  std::vector<Slot> table = std::vector<Slot>(size_t{1} << kTableBits);
};

void HeapPush(uint64_t* heap, int& n, uint64_t v) {
  int i = ++n;
  while (i > 1 && heap[i / 2] > v) {
    heap[i] = heap[i / 2];
    i /= 2;
  }
  heap[i] = v;
}

uint64_t HeapPop(uint64_t* heap, int& n) {
  const uint64_t top = heap[1];
  const uint64_t last = heap[n--];
  int i = 1;
  for (;;) {
    int child = 2 * i;
    if (child > n) break;
    if (child < n && heap[child + 1] < heap[child]) ++child;
    if (heap[child] >= last) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = last;
  return top;
}

uint64_t HeapPhase(Scratch& s, uint64_t& rng) {
  uint64_t* heap = s.heap.data();
  int n = 0;
  uint64_t now = 0;
  uint64_t sum = 0;
  for (int i = 0; i < kHeapSize / 2; ++i) HeapPush(heap, n, Next(rng) >> 40);
  for (int op = 0; op < kHeapOps; ++op) {
    // Pop the earliest event and schedule one or two later ones, keeping
    // the heap near half full like a steady event queue.
    now = HeapPop(heap, n);
    sum += now;
    const uint64_t r = Next(rng);
    HeapPush(heap, n, now + (r >> 44) + 1);
    if ((r & 1) != 0 && n < kHeapSize - 1) {
      HeapPush(heap, n, now + ((r >> 20) & 0xFFFF) + 1);
    } else if (n > kHeapSize / 4) {
      sum ^= HeapPop(heap, n);
    }
  }
  return sum;
}

uint64_t TablePhase(Scratch& s, uint64_t& rng) {
  constexpr uint64_t kMask = (uint64_t{1} << kTableBits) - 1;
  Slot* table = s.table.data();
  std::memset(table, 0, s.table.size() * sizeof(Slot));
  uint64_t keys_seed = Next(rng);
  uint64_t k = keys_seed;
  for (int i = 0; i < kTableInserts; ++i) {
    const uint64_t key = Next(k) | 1;
    uint64_t h = (key * 0xFF51AFD7ED558CCDull) >> (64 - kTableBits);
    while (table[h].key != 0 && table[h].key != key) h = (h + 1) & kMask;
    table[h].key = key;
    table[h].value += static_cast<uint64_t>(i);
  }
  // Half the lookups hit (replayed key stream), half miss.
  uint64_t hit = keys_seed;
  uint64_t sum = 0;
  for (int i = 0; i < kTableLookups; ++i) {
    const uint64_t key = (i & 1) != 0 ? (Next(hit) | 1) : (Next(rng) | 1);
    uint64_t h = (key * 0xFF51AFD7ED558CCDull) >> (64 - kTableBits);
    while (table[h].key != 0) {
      if (table[h].key == key) {
        sum += table[h].value;
        break;
      }
      h = (h + 1) & kMask;
    }
  }
  return sum;
}

uint64_t BranchPhase(uint64_t& rng) {
  uint64_t acc = 0;
  uint64_t state = 0;
  for (int i = 0; i < kBranchIters; ++i) {
    const uint64_t r = Next(rng);
    switch (r & 7) {
      case 0:
        acc += r >> 3;
        break;
      case 1:
        acc ^= r;
        state = (state + 1) & 15;
        break;
      case 2:
        if ((r & 0x100) != 0) acc -= state;
        break;
      case 3:
        acc = (acc << 1) | (acc >> 63);
        break;
      case 4:
        if (state > 7) {
          state -= 3;
        } else {
          acc += state * 3;
        }
        break;
      default:
        if ((acc & 1) != 0) state ^= r & 15;
        break;
    }
  }
  return acc + state;
}

}  // namespace

uint64_t RunReferenceUnits(int units) {
  static thread_local Scratch scratch;
  uint64_t checksum = 0;
  for (int u = 0; u < units; ++u) {
    uint64_t rng = kSeed;
    uint64_t sum = HeapPhase(scratch, rng);
    sum = sum * 31 + TablePhase(scratch, rng);
    sum = sum * 31 + BranchPhase(rng);
    checksum = u == 0 ? sum : checksum;
    if (sum != checksum) return 0;  // Every unit does identical work.
  }
  return checksum;
}

uint64_t ReferenceUnitChecksum() {
  static const uint64_t checksum = RunReferenceUnits(1);
  return checksum;
}

}  // namespace roundbench
