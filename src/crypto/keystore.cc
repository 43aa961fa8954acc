#include "crypto/keystore.h"

#include <algorithm>
#include <functional>

#include "crypto/ctr.h"
#include "crypto/stats.h"
#include "util/check.h"
#include "util/random.h"

namespace ipda::crypto {

namespace {

// Every key expansion a store performs, counted for the cost gate.
void BuildSchedule(const Key128& key, XteaSchedule& out) {
  out = XteaSchedule(key);
  ++ThreadCryptoStats().schedules_built;
}

}  // namespace

void KeyStore::Provision(std::vector<PeerId> peers, KeyDeriver deriver,
                         DeriveScope scope) {
  IPDA_CHECK(peers_.empty());
  IPDA_CHECK(deriver != nullptr);
  IPDA_DCHECK(std::adjacent_find(peers.begin(), peers.end(),
                                 std::greater_equal<PeerId>()) ==
              peers.end());
  peers_ = std::move(peers);
  slots_.assign(peers_.size(), Slot{Key128{}, kDerive});
  send_counters_.assign(peers_.size(), 0);
  deriver_ = std::move(deriver);
  derive_any_peer_ = scope == DeriveScope::kAnyPeer;
}

int KeyStore::InsertSlot(PeerId peer, const Slot& slot) {
  const auto at =
      std::lower_bound(peers_.begin(), peers_.end(), peer) - peers_.begin();
  peers_.insert(peers_.begin() + at, peer);
  slots_.insert(slots_.begin() + at, slot);
  send_counters_.insert(send_counters_.begin() + at, 0);
  return static_cast<int>(at);
}

void KeyStore::SetLinkKey(PeerId peer, const Key128& key) {
  const int slot = FindSlot(peer);
  if (slot < 0) {
    InsertSlot(peer, Slot{key, kKeyed});
    return;
  }
  Slot& s = slots_[static_cast<size_t>(slot)];
  s.key = key;
  if (s.schedule < kKeyed) {
    BuildSchedule(key, schedules_[s.schedule]);
  } else {
    s.schedule = kKeyed;
  }
}

int KeyStore::FindSlot(PeerId peer) const {
  const auto it = std::lower_bound(peers_.begin(), peers_.end(), peer);
  if (it == peers_.end() || *it != peer) return -1;
  return static_cast<int>(it - peers_.begin());
}

int KeyStore::ResolveSlot(PeerId peer) {
  const int slot = FindSlot(peer);
  if (slot >= 0 || !derive_any_peer_) return slot;
  return InsertSlot(peer, Slot{Key128{}, kDerive});
}

const XteaSchedule& KeyStore::SlotSchedule(int slot) {
  Slot& s = slots_[static_cast<size_t>(slot)];
  if (s.schedule >= kKeyed) {
    if (s.schedule == kDerive) {
      s.key = deriver_(peers_[static_cast<size_t>(slot)]);
    }
    if (schedules_.empty()) {
      // One reservation per store: a node uses a handful of its links in
      // a round (its slice targets and senders), so growing 1, 2, 4, 8
      // would cost an allocation per doubling on the message path.
      schedules_.reserve(std::min(peers_.size(), kScheduleReserve));
    }
    s.schedule = static_cast<uint32_t>(schedules_.size());
    BuildSchedule(s.key, schedules_.emplace_back());
  }
  return schedules_[s.schedule];
}

util::Result<Key128> KeyStore::GetLinkKey(PeerId peer) const {
  const int slot = FindSlot(peer);
  if (slot >= 0) {
    const Slot& s = slots_[static_cast<size_t>(slot)];
    return s.schedule == kDerive ? deriver_(peer) : s.key;
  }
  if (derive_any_peer_) return deriver_(peer);
  return util::NotFoundError("no link key for peer");
}

util::Status LinkCrypto::SealInPlace(PeerId peer, util::Bytes& wire) {
  IPDA_CHECK_GE(wire.size(), kSealOverheadBytes);
  const int slot = keystore_.ResolveSlot(peer);
  if (slot < 0) return util::NotFoundError("no link key for peer");
  ++ThreadCryptoStats().keystore_dense_hits;
  // Distinct per (direction, message): mixing (self, counter) can never
  // collide with the peer's (peer, counter') stream under the shared key.
  const uint64_t nonce = util::Mix64(
      static_cast<uint64_t>(self_) << 32 | peer,
      keystore_.NextSendCounter(slot));
  CtrCrypt(keystore_.SlotSchedule(slot), nonce,
           wire.data() + kSealOverheadBytes,
           wire.size() - kSealOverheadBytes);
  // Same little-endian layout ByteWriter::WriteU64 emits.
  for (size_t i = 0; i < kSealOverheadBytes; ++i) {
    wire[i] = static_cast<uint8_t>(nonce >> (8 * i));
  }
  return util::OkStatus();
}

util::Result<util::Bytes> LinkCrypto::Seal(PeerId peer,
                                           const util::Bytes& plaintext) {
  util::Bytes wire(kSealOverheadBytes + plaintext.size());
  std::copy(plaintext.begin(), plaintext.end(),
            wire.begin() + kSealOverheadBytes);
  IPDA_RETURN_IF_ERROR(SealInPlace(peer, wire));
  return wire;
}

util::Status LinkCrypto::Open(PeerId peer, const util::Bytes& wire,
                              util::Bytes& plaintext) {
  util::ByteReader reader(wire);
  IPDA_ASSIGN_OR_RETURN(uint64_t nonce, reader.ReadU64());
  const int slot = keystore_.ResolveSlot(peer);
  if (slot < 0) return util::NotFoundError("no link key for peer");
  ++ThreadCryptoStats().keystore_dense_hits;
  plaintext.assign(wire.begin() + kSealOverheadBytes, wire.end());
  CtrCrypt(keystore_.SlotSchedule(slot), nonce, plaintext);
  return util::OkStatus();
}

}  // namespace ipda::crypto
