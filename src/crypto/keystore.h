// Per-node key storage and the LinkCrypto facade protocols encrypt through.
//
// A KeyStore holds one symmetric key per neighbor link (however the key got
// there — pairwise derivation or EG predistribution). LinkCrypto seals a
// plaintext into [u64 nonce][ciphertext] wire format with a fresh per-link
// nonce, and opens it on the other side. Sealing fails cleanly when no key
// is shared with the peer, which is a real outcome under EG predistribution.
//
// Hot-path layout: every peer the store holds lives in one sorted slot
// table (peer ids in one array, key + schedule state in a parallel one,
// send counters in a third), so the per-message lookup is one binary
// search over a handful of u32s. A slot's key and XTEA schedule are
// made on its first Seal/Open, never before: most provisioned links carry
// no slice in a round, and their key work would be wasted. Slots come from
// Provision() (pairwise keys derived on demand), from SetLinkKey() on a
// peer not yet held (EG predistribution, CPDA cluster keys), and, under
// DeriveScope::kAnyPeer, from the first Seal/Open to any other peer.
// Payloads are sealed with XTEA-CTR (crypto/ctr.h).

#ifndef IPDA_CRYPTO_KEYSTORE_H_
#define IPDA_CRYPTO_KEYSTORE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "crypto/key.h"
#include "crypto/xtea.h"
#include "util/bytes.h"
#include "util/result.h"

namespace ipda::crypto {

// Node ids mirror net::NodeId without depending on the net library.
using PeerId = uint32_t;

class KeyStore {
 public:
  // On-demand key source, already bound to the owning node (callee passes
  // only the peer id).
  using KeyDeriver = std::function<Key128(PeerId peer)>;

  // Which peers a provisioning deriver keys (see Provision()).
  enum class DeriveScope {
    kProvisionedPeers,  // Only the provisioned slots.
    kAnyPeer,           // Also any other peer, on first contact.
  };

  // Makes `peers` (sorted ascending, distinct) this empty store's first
  // slots. A slot's key comes from `deriver` on its first Seal/Open (or
  // GetLinkKey), so unused links cost no key work. With kAnyPeer the
  // deriver also keys every other peer, inserting its slot on first
  // contact: the master-secret model, where any two nodes agree on their
  // pairwise key at first contact (churn: movers and joiners link up
  // mid-round), without materializing all N(N-1)/2 keys.
  void Provision(std::vector<PeerId> peers, KeyDeriver deriver,
                 DeriveScope scope);

  // Keys `peer`'s slot, inserting it at its sorted position if the store
  // does not hold the peer yet. Its schedule still waits for first use.
  void SetLinkKey(PeerId peer, const Key128& key);
  bool HasLinkKey(PeerId peer) const {
    return derive_any_peer_ || FindSlot(peer) >= 0;
  }
  util::Result<Key128> GetLinkKey(PeerId peer) const;
  size_t link_count() const { return peers_.size(); }
  const std::vector<PeerId>& Peers() const { return peers_; }

  // Slot index for `peer`, or -1. Inserting a lower peer id shifts the
  // index, so hold one only within a single Seal/Open.
  int FindSlot(PeerId peer) const;
  // FindSlot(), but a first-contact peer under kAnyPeer gets a slot.
  int ResolveSlot(PeerId peer);
  // The slot's XTEA schedule, keyed and built on the first call.
  const XteaSchedule& SlotSchedule(int slot);
  // The slot's next send counter, starting at 0 for every peer. The
  // counter is inserted and shifted together with its slot, so it stays
  // with its peer and a per-link nonce never repeats.
  uint64_t NextSendCounter(int slot) {
    return send_counters_[static_cast<size_t>(slot)]++;
  }

 private:
  // Slot::schedule values at or above kKeyed mean "not built yet".
  static constexpr uint32_t kKeyed = UINT32_MAX - 1;   // Key is in `key`.
  static constexpr uint32_t kDerive = UINT32_MAX;      // Key from deriver_.
  // Schedules the first build reserves room for (see SlotSchedule).
  static constexpr size_t kScheduleReserve = 8;
  struct Slot {
    Key128 key;
    uint32_t schedule;  // Index into schedules_, or kKeyed / kDerive.
  };

  // Inserts `peer` (not yet held) at its sorted position in every slot
  // array, with a fresh send counter; returns the new slot's index.
  int InsertSlot(PeerId peer, const Slot& slot);

  // Parallel, sorted by peer id.
  std::vector<PeerId> peers_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> send_counters_;
  // Built schedules, in first-use order; slots point in by index.
  std::vector<XteaSchedule> schedules_;
  KeyDeriver deriver_;  // Provisioned key source (see Provision()).
  bool derive_any_peer_ = false;
};

// Stateful sealer/opener bound to one node's KeyStore.
class LinkCrypto {
 public:
  explicit LinkCrypto(PeerId self) : self_(self) {}

  KeyStore& keystore() { return keystore_; }
  const KeyStore& keystore() const { return keystore_; }

  // Seals a message for `peer` in place. `wire` holds kSealOverheadBytes
  // of headroom (left there by the encoder) followed by the plaintext; on
  // success it holds [u64 nonce][ciphertext]. The nonce goes into the
  // headroom, so sealing allocates nothing. On an error `wire` is left as
  // it was.
  util::Status SealInPlace(PeerId peer, util::Bytes& wire);

  // Copying form for callers holding a bare plaintext: puts it behind
  // fresh headroom and seals that. Same bytes as SealInPlace.
  util::Result<util::Bytes> Seal(PeerId peer, const util::Bytes& plaintext);

  // Decrypts a sealed `wire` from `peer` into `plaintext`, overwriting it
  // and reusing its capacity: a receiver that keeps one buffer for every
  // open allocates nothing once the buffer has grown. On an error the
  // contents of `plaintext` are unspecified.
  util::Status Open(PeerId peer, const util::Bytes& wire,
                    util::Bytes& plaintext);

 private:
  PeerId self_;
  KeyStore keystore_;
};

// Extra bytes Seal() adds on top of the plaintext (the nonce).
inline constexpr size_t kSealOverheadBytes = 8;

}  // namespace ipda::crypto

#endif  // IPDA_CRYPTO_KEYSTORE_H_
