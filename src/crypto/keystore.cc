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
void BuildSchedule(const CipherBackend& backend, const Key128& key,
                   CipherSchedule& out) {
  backend.build(key, out);
  ++ThreadCryptoStats().schedules_built;
}

}  // namespace

void KeyStore::Provision(std::vector<PeerId> peers, KeyDeriver deriver,
                         DeriveScope scope) {
  IPDA_CHECK(dense_peers_.empty() && dynamic_.empty());
  IPDA_CHECK(deriver != nullptr);
  IPDA_DCHECK(std::adjacent_find(peers.begin(), peers.end(),
                                 std::greater_equal<PeerId>()) ==
              peers.end());
  dense_peers_ = std::move(peers);
  slots_.assign(dense_peers_.size(), Slot{Key128{}, kDerive});
  deriver_ = std::move(deriver);
  derive_any_peer_ = scope == DeriveScope::kAnyPeer;
}

void KeyStore::SetLinkKey(PeerId peer, const Key128& key) {
  const int slot = FindSlot(peer);
  if (slot < 0) {
    dynamic_[peer] = key;
    return;
  }
  Slot& s = slots_[static_cast<size_t>(slot)];
  s.key = key;
  if (s.schedule < kKeyed) {
    BuildSchedule(*backend_, key, schedules_[s.schedule]);
  } else {
    s.schedule = kKeyed;
  }
}

int KeyStore::FindSlot(PeerId peer) const {
  const auto it =
      std::lower_bound(dense_peers_.begin(), dense_peers_.end(), peer);
  if (it == dense_peers_.end() || *it != peer) return -1;
  return static_cast<int>(it - dense_peers_.begin());
}

const CipherSchedule& KeyStore::SlotSchedule(int slot) {
  Slot& s = slots_[static_cast<size_t>(slot)];
  if (s.schedule >= kKeyed) {
    if (s.schedule == kDerive) {
      s.key = deriver_(dense_peers_[static_cast<size_t>(slot)]);
    }
    s.schedule = static_cast<uint32_t>(schedules_.size());
    BuildSchedule(*backend_, s.key, schedules_.emplace_back());
  }
  return schedules_[s.schedule];
}

void KeyStore::Compile() {
  if (dynamic_.empty()) return;  // Nothing new to densify.
  // Dense peers never sit in dynamic_ (SetLinkKey updates their slot), so
  // the merge has no duplicates. Built schedules keep their indices.
  std::vector<std::pair<PeerId, Slot>> merged;
  merged.reserve(dense_peers_.size() + dynamic_.size());
  for (size_t i = 0; i < dense_peers_.size(); ++i) {
    merged.emplace_back(dense_peers_[i], slots_[i]);
  }
  for (const auto& [peer, key] : dynamic_) {
    merged.emplace_back(peer, Slot{key, kKeyed});
  }
  dynamic_.clear();
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  dense_peers_.resize(merged.size());
  slots_.resize(merged.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    dense_peers_[i] = merged[i].first;
    slots_[i] = merged[i].second;
  }
}

util::Result<Key128> KeyStore::GetLinkKey(PeerId peer) const {
  const int slot = FindSlot(peer);
  if (slot >= 0) {
    const Slot& s = slots_[static_cast<size_t>(slot)];
    return s.schedule == kDerive ? deriver_(peer) : s.key;
  }
  const auto it = dynamic_.find(peer);
  if (it != dynamic_.end()) return it->second;
  if (derive_any_peer_) return deriver_(peer);
  return util::NotFoundError("no link key for peer");
}

util::Result<CipherSchedule> KeyStore::DynamicSchedule(PeerId peer) const {
  IPDA_ASSIGN_OR_RETURN(const Key128 key, GetLinkKey(peer));
  CipherSchedule sched;
  BuildSchedule(*backend_, key, sched);
  return sched;
}

std::vector<PeerId> KeyStore::Peers() const {
  std::vector<PeerId> out;
  out.reserve(link_count());
  out.insert(out.end(), dense_peers_.begin(), dense_peers_.end());
  for (const auto& [peer, key] : dynamic_) out.push_back(peer);
  std::sort(out.begin(), out.end());
  return out;
}

void CounterStore::Demote(const KeyStore& store) {
  for (size_t i = 0; i < dense_.size(); ++i) {
    if (dense_[i] != 0) dynamic_[store.slot_peer(i)] = dense_[i];
  }
  dense_.clear();
}

void CounterStore::Compile(const KeyStore& store) {
  std::vector<uint64_t> fresh(store.dense_count(), 0);
  // Counters issued before Compile() (peers promoted to slots) keep
  // counting from where they were — nonces must never repeat.
  for (auto it = dynamic_.begin(); it != dynamic_.end();) {
    const int slot = store.FindSlot(it->first);
    if (slot >= 0) {
      fresh[static_cast<size_t>(slot)] = it->second;
      it = dynamic_.erase(it);
    } else {
      ++it;
    }
  }
  dense_ = std::move(fresh);
}

void LinkCrypto::Provision(std::vector<PeerId> peers,
                           KeyStore::KeyDeriver deriver,
                           KeyStore::DeriveScope scope) {
  keystore_.Provision(std::move(peers), std::move(deriver), scope);
  send_counters_.Compile(keystore_);
}

void LinkCrypto::Compile() {
  if (!keystore_.has_uncompiled_keys()) return;
  // Slot indices shift when new peers densify, so counters round-trip
  // through peer-id keys across the layout change.
  send_counters_.Demote(keystore_);
  keystore_.Compile();
  send_counters_.Compile(keystore_);
}

util::Result<util::Bytes> LinkCrypto::Seal(PeerId peer,
                                           const util::Bytes& plaintext) {
  return Seal(peer, util::Bytes(plaintext));
}

util::Result<util::Bytes> LinkCrypto::Seal(PeerId peer,
                                           util::Bytes&& plaintext) {
  // Distinct per (direction, message): mixing (self, counter) can never
  // collide with the peer's (peer, counter') stream under the shared key.
  uint64_t nonce;
  const CipherBackend& backend = keystore_.backend();
  const int slot = keystore_.FindSlot(peer);
  if (slot >= 0) {
    ++ThreadCryptoStats().keystore_dense_hits;
    const uint64_t counter = send_counters_.NextDense(slot);
    nonce = util::Mix64(static_cast<uint64_t>(self_) << 32 | peer, counter);
    CtrCrypt(backend, keystore_.SlotSchedule(slot), nonce, plaintext);
  } else {
    IPDA_ASSIGN_OR_RETURN(const CipherSchedule sched,
                          keystore_.DynamicSchedule(peer));
    ++ThreadCryptoStats().keystore_dynamic_hits;
    const uint64_t counter = send_counters_.NextDynamic(peer);
    nonce = util::Mix64(static_cast<uint64_t>(self_) << 32 | peer, counter);
    CtrCrypt(backend, sched, nonce, plaintext);
  }
  // Same little-endian layout ByteWriter::WriteU64 emits; prepending into
  // the ciphertext buffer keeps the whole seal allocation-free.
  uint8_t prefix[kSealOverheadBytes];
  for (size_t i = 0; i < kSealOverheadBytes; ++i) {
    prefix[i] = static_cast<uint8_t>(nonce >> (8 * i));
  }
  plaintext.insert(plaintext.begin(), prefix, prefix + kSealOverheadBytes);
  return std::move(plaintext);
}

util::Result<util::Bytes> LinkCrypto::Open(PeerId peer,
                                           const util::Bytes& wire) {
  util::ByteReader reader(wire);
  IPDA_ASSIGN_OR_RETURN(uint64_t nonce, reader.ReadU64());
  util::Bytes body(wire.begin() + kSealOverheadBytes, wire.end());
  const CipherBackend& backend = keystore_.backend();
  const int slot = keystore_.FindSlot(peer);
  if (slot >= 0) {
    ++ThreadCryptoStats().keystore_dense_hits;
    CtrCrypt(backend, keystore_.SlotSchedule(slot), nonce, body);
  } else {
    IPDA_ASSIGN_OR_RETURN(const CipherSchedule sched,
                          keystore_.DynamicSchedule(peer));
    ++ThreadCryptoStats().keystore_dynamic_hits;
    CtrCrypt(backend, sched, nonce, body);
  }
  return body;
}

}  // namespace ipda::crypto
