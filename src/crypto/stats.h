// Thread-local crypto hot-path tallies.
//
// The CTR and keystore fast paths run far below any object that could own
// a metrics registry, and threading one through every call would perturb
// the hot-path signatures PR 3 flattened. Instead each worker thread keeps
// one tally; runs execute whole on a single worker (shared-nothing model),
// so a run's contribution is the delta between a snapshot taken before the
// run and one taken at collection (see agg/run_metrics.cc). Deltas make
// the numbers deterministic per run even though the tally itself is
// process-lifetime monotone.

#ifndef IPDA_CRYPTO_STATS_H_
#define IPDA_CRYPTO_STATS_H_

#include <cstdint>

namespace ipda::crypto {

struct CryptoStats {
  uint64_t ctr_blocks_batched = 0;   // 8-byte XTEA-CTR keystream
                                     // blocks.
  uint64_t keystream_bytes = 0;      // Payload bytes CTR-crypted.
  uint64_t keystore_dense_hits = 0;  // Seal/Open resolved to a slot.
  uint64_t schedules_built = 0;  // Key expansions: one per used slot,
                                 // one more per rekey of a built slot.

  CryptoStats operator-(const CryptoStats& base) const {
    return CryptoStats{ctr_blocks_batched - base.ctr_blocks_batched,
                       keystream_bytes - base.keystream_bytes,
                       keystore_dense_hits - base.keystore_dense_hits,
                       schedules_built - base.schedules_built};
  }
};

// This thread's monotone tally (mutable: the hot paths increment through
// this same accessor).
inline CryptoStats& ThreadCryptoStats() {
  thread_local CryptoStats stats;
  return stats;
}

}  // namespace ipda::crypto

#endif  // IPDA_CRYPTO_STATS_H_
