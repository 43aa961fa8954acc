// Per-node key storage and the LinkCrypto facade protocols encrypt through.
//
// A KeyStore holds one symmetric key per neighbor link (however the key got
// there — pairwise derivation or EG predistribution). LinkCrypto seals a
// plaintext into [u64 nonce][ciphertext] wire format with a fresh per-link
// nonce, and opens it on the other side. Sealing fails cleanly when no key
// is shared with the peer, which is a real outcome under EG predistribution.
//
// Hot-path layout: the provisioned peer set lives in sorted dense slots
// (peer ids in one array, key + schedule state in a parallel one), so the
// per-message lookup is one binary search over a handful of u32s. A slot's
// key and cipher schedule are made on its first Seal/Open, never before:
// most provisioned links carry no slice in a round, and their key work
// would be wasted. Slots come from Provision() (pairwise keys derived on
// demand) or from Compile() (keys set by hand). Keys added after either
// (CPDA cluster keys) land in a dynamic overflow map that re-derives the
// schedule per message, exactly like an uncompiled store.
//
// Which cipher fills the schedules (XTEA default, AES-NI, ChaCha20 — see
// crypto/cipher.h) is fixed per store at construction; the wire format
// and nonce discipline are cipher-independent.

#ifndef IPDA_CRYPTO_KEYSTORE_H_
#define IPDA_CRYPTO_KEYSTORE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "crypto/cipher.h"
#include "crypto/key.h"
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

  explicit KeyStore(CipherKind cipher = CipherKind::kXtea)
      : backend_(&GetCipherBackend(cipher)) {}

  // The backend whose schedules this store caches (fixed at construction;
  // both link ends must agree, like the keys themselves).
  const CipherBackend& backend() const { return *backend_; }
  CipherKind cipher() const { return backend_->kind; }

  // Makes `peers` (sorted ascending, distinct) this empty store's dense
  // slots. A slot's key comes from `deriver` on its first Seal/Open (or
  // GetLinkKey), so unused links cost no key work. With kAnyPeer the
  // deriver also keys every other peer on the spot: the master-secret
  // model, where any two nodes agree on their pairwise key at first
  // contact (churn: movers and joiners link up mid-round), without
  // materializing all N(N-1)/2 keys. Those peers take the dynamic path.
  void Provision(std::vector<PeerId> peers, KeyDeriver deriver,
                 DeriveScope scope);

  void SetLinkKey(PeerId peer, const Key128& key);
  bool HasLinkKey(PeerId peer) const {
    return FindSlot(peer) >= 0 || dynamic_.count(peer) > 0 ||
           derive_any_peer_;
  }
  util::Result<Key128> GetLinkKey(PeerId peer) const;
  size_t link_count() const { return dense_peers_.size() + dynamic_.size(); }
  std::vector<PeerId> Peers() const;

  // Merges keys set by hand since the last Compile() into the dense slots
  // (call once links are provisioned, e.g. at tree setup). Builds no
  // schedule: those still wait for each slot's first use. No-op when no
  // key is waiting.
  void Compile();
  bool has_uncompiled_keys() const { return !dynamic_.empty(); }

  // Dense slot index for `peer`, or -1 (dynamic or absent). Slots are
  // stable until the next Compile() that has keys to merge.
  int FindSlot(PeerId peer) const;
  size_t dense_count() const { return dense_peers_.size(); }
  PeerId slot_peer(size_t slot) const { return dense_peers_[slot]; }
  // The slot's cipher schedule, keyed and built on the first call.
  const CipherSchedule& SlotSchedule(int slot);

  // Per-message schedule for a peer outside the dense slots (dynamic key
  // or deriver); fails like GetLinkKey().
  util::Result<CipherSchedule> DynamicSchedule(PeerId peer) const;

 private:
  // Slot::schedule values at or above kKeyed mean "not built yet".
  static constexpr uint32_t kKeyed = UINT32_MAX - 1;   // Key is in `key`.
  static constexpr uint32_t kDerive = UINT32_MAX;      // Key from deriver_.
  struct Slot {
    Key128 key;
    uint32_t schedule;  // Index into schedules_, or kKeyed / kDerive.
  };

  const CipherBackend* backend_;
  // Parallel, sorted by peer id.
  std::vector<PeerId> dense_peers_;
  std::vector<Slot> slots_;
  // Built schedules, in first-use order; slots point in by index.
  std::vector<CipherSchedule> schedules_;
  // Keys set by hand and not yet compiled, or added after the last
  // Compile() (cluster keys).
  std::unordered_map<PeerId, Key128> dynamic_;
  KeyDeriver deriver_;  // Provisioned key source (see Provision()).
  bool derive_any_peer_ = false;
};

// Per-peer monotone send counters sharing the KeyStore's dense slot
// layout; dynamic peers fall back to a map. Fresh counters start at 0
// either way, so compiled and uncompiled stores emit identical nonces.
class CounterStore {
 public:
  // Spills dense counters back to the map keyed by peer id; call with the
  // KeyStore's *current* (pre-Compile) slot layout before it changes.
  void Demote(const KeyStore& store);
  // Sizes the dense array to `store`'s slots, migrating any counters the
  // map accumulated for peers that are now dense.
  void Compile(const KeyStore& store);

  uint64_t NextDense(int slot) {
    return dense_[static_cast<size_t>(slot)]++;
  }
  uint64_t NextDynamic(PeerId peer) { return dynamic_[peer]++; }

 private:
  std::vector<uint64_t> dense_;
  std::unordered_map<PeerId, uint64_t> dynamic_;
};

// Stateful sealer/opener bound to one node's KeyStore.
class LinkCrypto {
 public:
  explicit LinkCrypto(PeerId self, CipherKind cipher = CipherKind::kXtea)
      : self_(self), keystore_(cipher) {}

  KeyStore& keystore() { return keystore_; }
  const KeyStore& keystore() const { return keystore_; }

  // KeyStore::Provision() plus dense send counters for the new slots.
  void Provision(std::vector<PeerId> peers, KeyStore::KeyDeriver deriver,
                 KeyStore::DeriveScope scope);

  // Merges keys set by hand into dense slots (keys, counters); schedules
  // follow on each slot's first use. Sealing works before, after, and
  // across Compile() with byte-identical wire output; compiled links just
  // skip the hash lookup and the per-message key schedule.
  void Compile();

  // Encrypts `plaintext` for `peer`; wire format [u64 nonce][ciphertext].
  util::Result<util::Bytes> Seal(PeerId peer, const util::Bytes& plaintext);

  // Move form: encrypts in place inside the caller's buffer and prepends
  // the nonce there, so sealing a message costs zero extra allocations.
  // Produces bytes identical to the copying overload.
  util::Result<util::Bytes> Seal(PeerId peer, util::Bytes&& plaintext);

  // Decrypts a Seal()ed message from `peer`.
  util::Result<util::Bytes> Open(PeerId peer, const util::Bytes& wire);

 private:
  PeerId self_;
  KeyStore keystore_;
  CounterStore send_counters_;
};

// Extra bytes Seal() adds on top of the plaintext (the nonce).
inline constexpr size_t kSealOverheadBytes = 8;

}  // namespace ipda::crypto

#endif  // IPDA_CRYPTO_KEYSTORE_H_
