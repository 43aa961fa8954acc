// Deterministic pseudo-random generation for reproducible simulations.
//
// Rng is xoshiro256** seeded through SplitMix64, the recommended seeding
// procedure from the xoshiro authors. Every experiment takes an explicit
// 64-bit seed; `Fork` derives an independent, label-addressed child stream
// so subsystems (deployment, MAC backoff, slicing, ...) never share state
// and adding draws to one subsystem cannot perturb another.

#ifndef IPDA_UTIL_RANDOM_H_
#define IPDA_UTIL_RANDOM_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace ipda::util {

// SplitMix64 step; also usable as a cheap 64-bit mixer/hash.
uint64_t SplitMix64(uint64_t& state);

// Stateless mix of two 64-bit values into one (for label-derived seeds).
uint64_t Mix64(uint64_t a, uint64_t b);

// FNV-1a hash of a string, for deriving child-stream seeds from labels.
uint64_t HashLabel(std::string_view label);

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Independent child stream identified by (this stream's seed, label).
  Rng Fork(std::string_view label) const;
  // Independent child stream identified by an integer (e.g. node id).
  Rng Fork(uint64_t index) const;

  // Raw 64 uniform bits.
  uint64_t NextUint64();

  // Uniform in [0, bound). bound must be > 0. Unbiased (rejection sampling).
  uint64_t UniformUint64(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double UniformDouble();

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Exponentially distributed with the given mean (> 0).
  double Exponential(double mean);

  // Standard normal via Box-Muller.
  double Normal(double mean, double stddev);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformUint64(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Sample k distinct indices from [0, n) uniformly (k <= n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);
  // Same draws and order, written into `out` (overwritten, its capacity
  // reused). `Index` must represent n - 1.
  template <typename Index>
  void SampleWithoutReplacement(size_t n, size_t k, std::vector<Index>& out) {
    IPDA_CHECK_LE(k, n);
    // Floyd's algorithm: O(k) expected draws, no O(n) scratch for small k.
    out.clear();
    out.reserve(k);
    for (size_t j = n - k; j < n; ++j) {
      const auto t = static_cast<Index>(UniformUint64(j + 1));
      const bool seen = std::find(out.begin(), out.end(), t) != out.end();
      out.push_back(seen ? static_cast<Index>(j) : t);
    }
  }

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
  uint64_t s_[4];
};

}  // namespace ipda::util

#endif  // IPDA_UTIL_RANDOM_H_
