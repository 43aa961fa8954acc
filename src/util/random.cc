#include "util/random.h"

#include <cmath>

#include "util/check.h"

namespace ipda::util {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t a, uint64_t b) {
  uint64_t state = a ^ Rotl(b, 32) ^ 0x2545f4914f6cdd1dULL;
  (void)SplitMix64(state);
  return SplitMix64(state);
}

uint64_t HashLabel(std::string_view label) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis.
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001b3ULL;  // FNV prime.
  }
  return h;
}

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
}

Rng Rng::Fork(std::string_view label) const {
  return Rng(Mix64(seed_, HashLabel(label)));
}

Rng Rng::Fork(uint64_t index) const {
  return Rng(Mix64(seed_, index ^ 0x9e3779b97f4a7c15ULL));
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  IPDA_CHECK_GT(bound, 0u);
  // Rejection sampling over the largest multiple of `bound` below 2^64.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  IPDA_CHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // Full range.
  return lo + static_cast<int64_t>(UniformUint64(span));
}

double Rng::UniformDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  IPDA_CHECK_LE(lo, hi);
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Exponential(double mean) {
  IPDA_CHECK_GT(mean, 0.0);
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  double u1;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  const double u2 = UniformDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  return mean + stddev * z;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  std::vector<size_t> out;
  SampleWithoutReplacement(n, k, out);
  return out;
}

}  // namespace ipda::util
