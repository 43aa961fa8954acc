#include "crypto/pairwise.h"

#include <algorithm>

#include "util/random.h"

namespace ipda::crypto {

Key128 PairwiseKeyScheme::LinkKey(PeerId a, PeerId b) const {
  const PeerId lo = std::min(a, b);
  const PeerId hi = std::max(a, b);
  const uint64_t pair = (static_cast<uint64_t>(lo) << 32) | hi;
  return Key128::FromSeed(util::Mix64(master_secret_, pair));
}

}  // namespace ipda::crypto
