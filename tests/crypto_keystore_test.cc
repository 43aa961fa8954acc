#include "crypto/keystore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "agg/link_keys.h"
#include "crypto/ctr.h"
#include "crypto/pairwise.h"
#include "crypto/stats.h"
#include "net/topology.h"
#include "util/bytes.h"
#include "util/random.h"
#include "link_crypto_testing.h"

namespace ipda::crypto {
namespace {

TEST(KeyStore, SetGetHas) {
  KeyStore store;
  EXPECT_FALSE(store.HasLinkKey(5));
  EXPECT_FALSE(store.GetLinkKey(5).ok());
  store.SetLinkKey(5, Key128::FromSeed(1));
  EXPECT_TRUE(store.HasLinkKey(5));
  EXPECT_EQ(*store.GetLinkKey(5), Key128::FromSeed(1));
  EXPECT_EQ(store.link_count(), 1u);
}

TEST(KeyStore, PeersSorted) {
  KeyStore store;
  store.SetLinkKey(9, Key128::FromSeed(1));
  store.SetLinkKey(2, Key128::FromSeed(2));
  store.SetLinkKey(5, Key128::FromSeed(3));
  EXPECT_EQ(store.Peers(), (std::vector<PeerId>{2, 5, 9}));
}

TEST(KeyStore, OverwriteReplacesKey) {
  KeyStore store;
  store.SetLinkKey(1, Key128::FromSeed(1));
  store.SetLinkKey(1, Key128::FromSeed(2));
  EXPECT_EQ(*store.GetLinkKey(1), Key128::FromSeed(2));
  EXPECT_EQ(store.link_count(), 1u);
}

class LinkCryptoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Key128 shared = Key128::FromSeed(42);
    alice_.keystore().SetLinkKey(2, shared);
    bob_.keystore().SetLinkKey(1, shared);
  }

  LinkCrypto alice_{1};
  LinkCrypto bob_{2};
};

TEST_F(LinkCryptoTest, SealOpenRoundTrip) {
  const util::Bytes plaintext{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto wire = alice_.Seal(2, plaintext);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->size(), plaintext.size() + kSealOverheadBytes);
  auto opened = OpenCopy(bob_, 1, *wire);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, plaintext);
}

TEST_F(LinkCryptoTest, CiphertextDiffersFromPlaintext) {
  const util::Bytes plaintext(64, 0x00);
  auto wire = alice_.Seal(2, plaintext);
  ASSERT_TRUE(wire.ok());
  const util::Bytes body(wire->begin() + kSealOverheadBytes, wire->end());
  EXPECT_NE(body, plaintext);
}

TEST_F(LinkCryptoTest, RepeatedSealsUseFreshNonces) {
  const util::Bytes plaintext(32, 0xaa);
  auto w1 = alice_.Seal(2, plaintext);
  auto w2 = alice_.Seal(2, plaintext);
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  EXPECT_NE(*w1, *w2);  // Same plaintext, different wire bytes.
  EXPECT_EQ(*OpenCopy(bob_, 1, *w1), plaintext);
  EXPECT_EQ(*OpenCopy(bob_, 1, *w2), plaintext);
}

TEST_F(LinkCryptoTest, BothDirectionsIndependent) {
  const util::Bytes a_to_b{1, 1, 1};
  const util::Bytes b_to_a{2, 2, 2};
  auto w1 = alice_.Seal(2, a_to_b);
  auto w2 = bob_.Seal(1, b_to_a);
  EXPECT_EQ(*OpenCopy(bob_, 1, *w1), a_to_b);
  EXPECT_EQ(*OpenCopy(alice_, 2, *w2), b_to_a);
}

TEST_F(LinkCryptoTest, SealToUnknownPeerFails) {
  auto wire = alice_.Seal(99, util::Bytes{1});
  EXPECT_FALSE(wire.ok());
  EXPECT_EQ(wire.status().code(), util::StatusCode::kNotFound);
}

TEST_F(LinkCryptoTest, OpenFromUnknownPeerFails) {
  EXPECT_FALSE(OpenCopy(bob_, 99, util::Bytes(16, 0)).ok());
}

TEST_F(LinkCryptoTest, WrongKeyYieldsGarbage) {
  LinkCrypto eve(3);
  eve.keystore().SetLinkKey(1, Key128::FromSeed(1234));
  const util::Bytes plaintext{9, 8, 7, 6};
  auto wire = alice_.Seal(2, plaintext);
  auto opened = OpenCopy(eve, 1, *wire);
  ASSERT_TRUE(opened.ok());  // Decryption "succeeds"...
  EXPECT_NE(*opened, plaintext);  // ...but produces garbage.
}

TEST_F(LinkCryptoTest, TruncatedWireFails) {
  auto wire = alice_.Seal(2, util::Bytes{1, 2, 3});
  util::Bytes truncated(wire->begin(), wire->begin() + 4);
  EXPECT_FALSE(OpenCopy(bob_, 1, truncated).ok());
}

TEST_F(LinkCryptoTest, WireShorterThanNonceIsRejected) {
  util::Bytes plaintext{0xEE};
  for (size_t len = 0; len < kSealOverheadBytes; ++len) {
    EXPECT_FALSE(bob_.Open(1, util::Bytes(len, 0x42), plaintext).ok())
        << "length " << len;
  }
}

TEST_F(LinkCryptoTest, OpenIntoReusedBufferMatchesFreshOpen) {
  // A receiver opens every message into one buffer. After it held a
  // longer plaintext, a shorter one must come out byte-identical to an
  // open into a fresh buffer, with nothing of the old one left over.
  const util::Bytes long_plaintext(40, 0x77);
  const util::Bytes short_plaintext{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto long_wire = alice_.Seal(2, long_plaintext);
  auto short_wire = alice_.Seal(2, short_plaintext);
  ASSERT_TRUE(long_wire.ok());
  ASSERT_TRUE(short_wire.ok());

  LinkCrypto fresh_bob(2);
  fresh_bob.keystore().SetLinkKey(1, Key128::FromSeed(42));
  auto fresh = OpenCopy(fresh_bob, 1, *short_wire);
  ASSERT_TRUE(fresh.ok());

  util::Bytes reused;
  ASSERT_TRUE(bob_.Open(1, *long_wire, reused).ok());
  EXPECT_EQ(reused, long_plaintext);
  ASSERT_TRUE(bob_.Open(1, *short_wire, reused).ok());
  EXPECT_EQ(reused, *fresh);
  EXPECT_EQ(reused, short_plaintext);
}

// The next four tests keep the names they had when a Compile() pass
// moved late keys into a dense table; each now checks the same property
// of the slot table, which is kept sorted on every insert.

TEST(KeyStore, CompileDensifiesAndPreservesLookups) {
  // Keys set in any order land in dense slots, sorted by peer.
  KeyStore store;
  store.SetLinkKey(9, Key128::FromSeed(1));
  store.SetLinkKey(2, Key128::FromSeed(2));
  store.SetLinkKey(5, Key128::FromSeed(3));
  EXPECT_EQ(store.link_count(), 3u);
  EXPECT_EQ(*store.GetLinkKey(2), Key128::FromSeed(2));
  EXPECT_EQ(*store.GetLinkKey(5), Key128::FromSeed(3));
  EXPECT_EQ(*store.GetLinkKey(9), Key128::FromSeed(1));
  EXPECT_EQ(store.Peers(), (std::vector<PeerId>{2, 5, 9}));
  // Slots resolve in peer order; unknown peers miss.
  EXPECT_EQ(store.FindSlot(2), 0);
  EXPECT_EQ(store.FindSlot(5), 1);
  EXPECT_EQ(store.FindSlot(9), 2);
  EXPECT_EQ(store.FindSlot(7), -1);
}

TEST(KeyStore, KeysAddedAfterCompileStillWork) {
  // A late key after provisioning lands at its sorted slot at once.
  KeyStore provisioned;
  provisioned.Provision({3, 8}, [](PeerId) { return Key128::FromSeed(4); },
                        KeyStore::DeriveScope::kProvisionedPeers);
  provisioned.SetLinkKey(5, Key128::FromSeed(5));
  EXPECT_TRUE(provisioned.HasLinkKey(5));
  EXPECT_EQ(provisioned.link_count(), 3u);
  EXPECT_EQ(provisioned.Peers(), (std::vector<PeerId>{3, 5, 8}));
  EXPECT_EQ(provisioned.FindSlot(5), 1);
  EXPECT_EQ(provisioned.FindSlot(8), 2);
  EXPECT_EQ(*provisioned.GetLinkKey(5), Key128::FromSeed(5));
  EXPECT_EQ(*provisioned.GetLinkKey(8), Key128::FromSeed(4));
}

TEST_F(LinkCryptoTest, OverwriteOfAUsedSlotRekeysIt) {
  // The overwrite hits the existing slot (no second slot for the peer)
  // and rebuilds its schedule: later seals use the new key.
  const util::Bytes plaintext(10, 0x42);
  ASSERT_TRUE(alice_.Seal(2, plaintext).ok());
  const Key128 fresh = Key128::FromSeed(43);
  const uint64_t before = ThreadCryptoStats().schedules_built;
  alice_.keystore().SetLinkKey(2, fresh);
  EXPECT_EQ(ThreadCryptoStats().schedules_built, before + 1);
  EXPECT_EQ(alice_.keystore().link_count(), 1u);
  EXPECT_EQ(*alice_.keystore().GetLinkKey(2), fresh);
  auto wire = alice_.Seal(2, plaintext);
  ASSERT_TRUE(wire.ok());
  EXPECT_NE(*OpenCopy(bob_, 1, *wire), plaintext);  // Bob still has the old key.
  bob_.keystore().SetLinkKey(1, fresh);
  EXPECT_EQ(*OpenCopy(bob_, 1, *wire), plaintext);
}

uint64_t NonceOf(const util::Bytes& wire) {
  util::ByteReader reader(wire);
  return *reader.ReadU64();
}

TEST_F(LinkCryptoTest, CompileMidStreamKeepsNoncesFresh) {
  // Inserting a higher-id peer mid-stream leaves peer 2's slot in place;
  // its counter carries on, so the nonce never repeats.
  const util::Bytes plaintext(16, 0x77);
  auto before = alice_.Seal(2, plaintext);  // Slot 0, counter 0.
  alice_.keystore().SetLinkKey(9, Key128::FromSeed(7));
  ASSERT_EQ(alice_.keystore().FindSlot(2), 0);
  auto after = alice_.Seal(2, plaintext);  // Slot 0, counter 1.
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(NonceOf(*before), util::Mix64(uint64_t{1} << 32 | 2, 0));
  EXPECT_EQ(NonceOf(*after), util::Mix64(uint64_t{1} << 32 | 2, 1));
  EXPECT_EQ(*OpenCopy(bob_, 1, *before), plaintext);
  EXPECT_EQ(*OpenCopy(bob_, 1, *after), plaintext);
}

TEST_F(LinkCryptoTest, RecompileAfterNewPeerShiftsSlotsSafely) {
  // Inserting a lower-id peer shifts peer 2's slot index; its send
  // counter shifts with it, so the nonce sequence continues unbroken.
  const util::Bytes plaintext(12, 0x11);
  auto w1 = alice_.Seal(2, plaintext);  // Slot 0, counter 0.
  alice_.keystore().SetLinkKey(0, Key128::FromSeed(7));
  ASSERT_EQ(alice_.keystore().FindSlot(2), 1);
  auto w2 = alice_.Seal(2, plaintext);  // Slot 1, counter 1.
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(NonceOf(*w1), util::Mix64(uint64_t{1} << 32 | 2, 0));
  EXPECT_EQ(NonceOf(*w2), util::Mix64(uint64_t{1} << 32 | 2, 1));
  EXPECT_EQ(*OpenCopy(bob_, 1, *w1), plaintext);
  EXPECT_EQ(*OpenCopy(bob_, 1, *w2), plaintext);
  // The new peer's own counter starts at 0.
  auto w3 = alice_.Seal(0, plaintext);
  ASSERT_TRUE(w3.ok());
  EXPECT_EQ(NonceOf(*w3), util::Mix64(uint64_t{1} << 32 | 0, 0));
}

TEST(PairwiseKeyScheme, SymmetricInEndpoints) {
  PairwiseKeyScheme scheme(777);
  EXPECT_EQ(scheme.LinkKey(3, 9), scheme.LinkKey(9, 3));
  EXPECT_FALSE(scheme.LinkKey(3, 9) == scheme.LinkKey(3, 8));
}

TEST(PairwiseKeyScheme, DifferentMastersDifferentKeys) {
  EXPECT_FALSE(PairwiseKeyScheme(1).LinkKey(1, 2) ==
               PairwiseKeyScheme(2).LinkKey(1, 2));
}

TEST(PairwiseKeyScheme, ProvisionInstallsBothDirections) {
  // Ring 0-1-2-3-0: node 2 is not a neighbour of node 0.
  auto ring = net::Topology::RegularRing(4, 2);
  ASSERT_TRUE(ring.ok());
  std::vector<LinkCrypto> cryptos = agg::ProvisionPairwiseKeys(
      *ring, PairwiseKeyScheme(10), KeyStore::DeriveScope::kProvisionedPeers);
  EXPECT_TRUE(cryptos[0].keystore().HasLinkKey(1));
  EXPECT_TRUE(cryptos[1].keystore().HasLinkKey(0));
  EXPECT_TRUE(cryptos[1].keystore().HasLinkKey(2));
  EXPECT_FALSE(cryptos[0].keystore().HasLinkKey(2));
  // End-to-end over a provisioned link.
  auto wire = cryptos[1].Seal(2, util::Bytes{42});
  EXPECT_EQ(*OpenCopy(cryptos[2], 1, *wire), util::Bytes{42});
}

// --- Slots keyed on first use -------------------------------------------

KeyStore::KeyDeriver DeriverFor(const PairwiseKeyScheme& scheme,
                                PeerId self) {
  return [scheme, self](PeerId peer) { return scheme.LinkKey(self, peer); };
}

TEST(LazyKeyStore, ProvisioningBuildsNoSchedule) {
  const PairwiseKeyScheme scheme(5);
  const uint64_t before = ThreadCryptoStats().schedules_built;
  LinkCrypto node(1);
  node.keystore().Provision({2, 5, 9}, DeriverFor(scheme, 1),
                            KeyStore::DeriveScope::kProvisionedPeers);
  EXPECT_EQ(ThreadCryptoStats().schedules_built, before);
  EXPECT_EQ(node.keystore().link_count(), 3u);
  EXPECT_EQ(node.keystore().Peers(), (std::vector<PeerId>{2, 5, 9}));
  // Reading a key derives it without building its schedule.
  EXPECT_EQ(*node.keystore().GetLinkKey(5), scheme.LinkKey(1, 5));
  EXPECT_FALSE(node.keystore().HasLinkKey(4));
  EXPECT_FALSE(node.keystore().GetLinkKey(4).ok());
  EXPECT_EQ(ThreadCryptoStats().schedules_built, before);
}

TEST(LazyKeyStore, SlotScheduleBuiltOnceAndNeverForAnUnusedLink) {
  const PairwiseKeyScheme scheme(6);
  LinkCrypto alice(1);
  LinkCrypto bob(2);
  alice.keystore().Provision({2, 5, 9}, DeriverFor(scheme, 1),
                             KeyStore::DeriveScope::kProvisionedPeers);
  bob.keystore().Provision({1, 3}, DeriverFor(scheme, 2),
                           KeyStore::DeriveScope::kProvisionedPeers);
  const CryptoStats base = ThreadCryptoStats();
  for (int i = 0; i < 5; ++i) {
    const util::Bytes plaintext(3 + i, static_cast<uint8_t>(i));
    auto to_bob = alice.Seal(2, plaintext);
    ASSERT_TRUE(to_bob.ok());
    EXPECT_EQ(*OpenCopy(bob, 1, *to_bob), plaintext);
    auto to_alice = bob.Seal(1, plaintext);
    ASSERT_TRUE(to_alice.ok());
    EXPECT_EQ(*OpenCopy(alice, 2, *to_alice), plaintext);
  }
  const CryptoStats used = ThreadCryptoStats() - base;
  // One per used link end, not per use, and none for the three unused
  // slots (alice: 5, 9; bob: 3).
  EXPECT_EQ(used.schedules_built, 2u);
  EXPECT_EQ(used.keystore_dense_hits, 20u);
}

// Five round trips between alice (1) and carol (9), neither of which
// provisioned the other; returns the schedules built on the way.
// `hand_set` keys the link on both ends with SetLinkKey first.
uint64_t SchedulesForFiveRoundTrips(KeyStore::DeriveScope scope,
                                    bool hand_set) {
  const PairwiseKeyScheme scheme(8);
  LinkCrypto alice(1);
  LinkCrypto carol(9);
  alice.keystore().Provision({2, 5}, DeriverFor(scheme, 1), scope);
  carol.keystore().Provision({3}, DeriverFor(scheme, 9), scope);
  if (hand_set) {
    alice.keystore().SetLinkKey(9, scheme.LinkKey(1, 9));
    carol.keystore().SetLinkKey(1, scheme.LinkKey(9, 1));
  }
  const uint64_t before = ThreadCryptoStats().schedules_built;
  for (int i = 0; i < 5; ++i) {
    const util::Bytes plaintext(4 + i, static_cast<uint8_t>(i));
    auto to_carol = alice.Seal(9, plaintext);
    EXPECT_TRUE(to_carol.ok());
    if (!to_carol.ok()) break;
    EXPECT_EQ(*OpenCopy(carol, 1, *to_carol), plaintext);
    auto to_alice = carol.Seal(1, plaintext);
    EXPECT_TRUE(to_alice.ok());
    if (!to_alice.ok()) break;
    EXPECT_EQ(*OpenCopy(alice, 9, *to_alice), plaintext);
  }
  return ThreadCryptoStats().schedules_built - before;
}

TEST(LazyKeyStore, KeySetAfterProvisionBuildsOneSchedulePerEnd) {
  // CPDA's cluster-key path: a non-neighbour keyed by SetLinkKey after
  // provisioning gets a slot, so five seals and five opens on each end
  // expand its schedule once, not once per message.
  EXPECT_EQ(SchedulesForFiveRoundTrips(
                KeyStore::DeriveScope::kProvisionedPeers, true),
            2u);
}

TEST(LazyKeyStore, FirstContactPeerBuildsOneSchedulePerEnd) {
  // Churn: under kAnyPeer the first Seal/Open to an unprovisioned peer
  // inserts a derive-on-use slot, which later messages reuse.
  EXPECT_EQ(
      SchedulesForFiveRoundTrips(KeyStore::DeriveScope::kAnyPeer, false),
      2u);
}

TEST(LazyKeyStore, FirstContactInsertsASlot) {
  const PairwiseKeyScheme scheme(12);
  LinkCrypto alice(4);
  alice.keystore().Provision({2, 6}, DeriverFor(scheme, 4),
                             KeyStore::DeriveScope::kAnyPeer);
  ASSERT_TRUE(alice.Seal(6, util::Bytes{1}).ok());
  ASSERT_TRUE(alice.Seal(3, util::Bytes{2}).ok());  // First contact.
  EXPECT_EQ(alice.keystore().Peers(), (std::vector<PeerId>{2, 3, 6}));
  EXPECT_EQ(*alice.keystore().GetLinkKey(3), scheme.LinkKey(4, 3));
  // Peer 6 kept its counter across the insert in front of it.
  auto wire = alice.Seal(6, util::Bytes{3});
  ASSERT_TRUE(wire.ok());
  util::ByteReader reader(*wire);
  EXPECT_EQ(*reader.ReadU64(), util::Mix64(uint64_t{4} << 32 | 6, 1));
}

TEST(LazyKeyStore, HandSetKeysAlsoWaitForFirstUse) {
  LinkCrypto alice(1);
  const uint64_t before = ThreadCryptoStats().schedules_built;
  alice.keystore().SetLinkKey(2, Key128::FromSeed(42));
  alice.keystore().SetLinkKey(7, Key128::FromSeed(43));
  EXPECT_EQ(ThreadCryptoStats().schedules_built, before);
  ASSERT_TRUE(alice.Seal(2, util::Bytes{1}).ok());
  ASSERT_TRUE(alice.Seal(2, util::Bytes{2}).ok());
  EXPECT_EQ(ThreadCryptoStats().schedules_built, before + 1);  // Not 7's.
}

TEST(LazyKeyStore, HasLinkKeyIsTopologyAdjacency) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    net::DeploymentConfig deployment;
    deployment.area = net::Area{200.0, 200.0};
    deployment.node_count = 80;
    util::Rng rng(seed);
    auto topology = net::Topology::RandomGeometric(deployment, 40.0, rng);
    ASSERT_TRUE(topology.ok());
    const uint64_t before = ThreadCryptoStats().schedules_built;
    std::vector<LinkCrypto> cryptos = agg::ProvisionPairwiseKeys(
        *topology, PairwiseKeyScheme(seed),
        KeyStore::DeriveScope::kProvisionedPeers);
    EXPECT_EQ(ThreadCryptoStats().schedules_built, before);
    ASSERT_EQ(cryptos.size(), topology->node_count());
    for (net::NodeId a = 0; a < topology->node_count(); ++a) {
      EXPECT_EQ(cryptos[a].keystore().link_count(), topology->degree(a));
      for (net::NodeId b = 0; b < topology->node_count(); ++b) {
        EXPECT_EQ(cryptos[a].keystore().HasLinkKey(b),
                  topology->AreNeighbors(a, b))
            << "seed " << seed << " link " << a << "-" << b;
      }
    }
  }
}

// The pre-lazy store, kept as the differential referee: every provisioned
// link gets its key and schedule up front; keys set later live in an
// overflow map and, like peers keyed only by the churn deriver, re-expand
// their schedule per message. It also counts the schedules a first-use
// slot table should build for the same script.
class EagerLinkCrypto {
 public:
  explicit EagerLinkCrypto(PeerId self) : self_(self) {}

  void Provision(const std::vector<PeerId>& peers,
                 const PairwiseKeyScheme& scheme, bool any_peer) {
    for (PeerId peer : peers) {
      dense_[peer] = XteaSchedule(scheme.LinkKey(self_, peer));
    }
    if (any_peer) deriver_ = scheme;
  }
  void SetLinkKey(PeerId peer, const Key128& key) {
    if (used_.count(peer) > 0) ++first_use_builds;  // Rekeys a built slot.
    const auto it = dense_.find(peer);
    if (it != dense_.end()) {
      it->second = XteaSchedule(key);
    } else {
      late_[peer] = key;
    }
  }
  bool HasLinkKey(PeerId peer) const {
    return dense_.count(peer) > 0 || late_.count(peer) > 0 ||
           deriver_.has_value();
  }

  util::Result<util::Bytes> Seal(PeerId peer, util::Bytes plaintext) {
    IPDA_ASSIGN_OR_RETURN(const XteaSchedule sched, Schedule(peer));
    const uint64_t nonce = util::Mix64(
        static_cast<uint64_t>(self_) << 32 | peer, counters_[peer]++);
    CtrCrypt(sched, nonce, plaintext);
    util::Bytes wire;
    for (size_t i = 0; i < kSealOverheadBytes; ++i) {
      wire.push_back(static_cast<uint8_t>(nonce >> (8 * i)));
    }
    wire.insert(wire.end(), plaintext.begin(), plaintext.end());
    return wire;
  }
  util::Result<util::Bytes> Open(PeerId peer, const util::Bytes& wire) {
    if (wire.size() < kSealOverheadBytes) {
      return util::InvalidArgumentError("short");
    }
    uint64_t nonce = 0;
    for (size_t i = 0; i < kSealOverheadBytes; ++i) {
      nonce |= static_cast<uint64_t>(wire[i]) << (8 * i);
    }
    IPDA_ASSIGN_OR_RETURN(const XteaSchedule sched, Schedule(peer));
    util::Bytes body(wire.begin() + kSealOverheadBytes, wire.end());
    CtrCrypt(sched, nonce, body);
    return body;
  }

  uint64_t dense_hits = 0;
  uint64_t dynamic_hits = 0;
  // One per peer's first resolved Seal/Open, one per later rekey.
  uint64_t first_use_builds = 0;

 private:
  util::Result<XteaSchedule> Schedule(PeerId peer) {
    if (HasLinkKey(peer) && used_.insert(peer).second) ++first_use_builds;
    const auto dense = dense_.find(peer);
    if (dense != dense_.end()) {
      ++dense_hits;
      return dense->second;
    }
    std::optional<Key128> key;
    if (const auto late = late_.find(peer); late != late_.end()) {
      key = late->second;
    } else if (deriver_.has_value()) {
      key = deriver_->LinkKey(self_, peer);
    }
    if (!key.has_value()) return util::NotFoundError("no link key");
    ++dynamic_hits;
    return XteaSchedule(*key);
  }

  PeerId self_;
  std::map<PeerId, XteaSchedule> dense_;
  std::map<PeerId, Key128> late_;
  std::optional<PairwiseKeyScheme> deriver_;  // Churn fallback.
  std::map<PeerId, uint64_t> counters_;
  std::set<PeerId> used_;  // Peers with a resolved Seal/Open.
};

// Seeded random graph plus one interleaved script of seals, opens,
// hand-set keys (CPDA's cluster-key path) and, with `churn`, seals to
// peers only the deriver can key. The slot table must match the eager
// store byte for byte: wire bytes (hence nonces), opened plaintexts,
// failures and HasLinkKey. Its hit count must equal the referee's dense
// plus dynamic hits, and it must build one schedule per used link end
// (plus rekeys), never one per message.
void RunDifferential(uint64_t seed, bool churn) {
  constexpr PeerId kNodes = 24;
  util::Rng rng(seed);
  std::vector<std::vector<PeerId>> adjacency(kNodes);
  for (PeerId a = 0; a < kNodes; ++a) {
    for (PeerId b = a + 1; b < kNodes; ++b) {
      if (rng.Bernoulli(0.2)) {
        adjacency[a].push_back(b);
        adjacency[b].push_back(a);
      }
    }
  }
  const PairwiseKeyScheme scheme(util::Mix64(seed, 0x6c617a79));
  const KeyStore::DeriveScope scope =
      churn ? KeyStore::DeriveScope::kAnyPeer
            : KeyStore::DeriveScope::kProvisionedPeers;
  std::vector<LinkCrypto> lazy;
  std::vector<EagerLinkCrypto> eager;
  for (PeerId id = 0; id < kNodes; ++id) {
    std::sort(adjacency[id].begin(), adjacency[id].end());
    lazy.emplace_back(id).keystore().Provision(adjacency[id],
                                               DeriverFor(scheme, id), scope);
    eager.emplace_back(id).Provision(adjacency[id], scheme, churn);
  }

  const CryptoStats base = ThreadCryptoStats();
  for (int step = 0; step < 600; ++step) {
    const auto a = static_cast<PeerId>(rng.UniformUint64(kNodes));
    const double op = rng.UniformDouble();
    PeerId b;
    if (op < 0.7 && !adjacency[a].empty()) {
      b = adjacency[a][rng.UniformUint64(adjacency[a].size())];
    } else {
      b = static_cast<PeerId>(rng.UniformUint64(kNodes));
      if (b == a) continue;
    }
    ASSERT_EQ(lazy[a].keystore().HasLinkKey(b), eager[a].HasLinkKey(b))
        << "seed " << seed << " step " << step;
    if (op < 0.85) {
      const util::Bytes plaintext(1 + rng.UniformUint64(40),
                                  static_cast<uint8_t>(step));
      auto lazy_wire = lazy[a].Seal(b, plaintext);
      auto eager_wire = eager[a].Seal(b, plaintext);
      ASSERT_EQ(lazy_wire.ok(), eager_wire.ok())
          << "seed " << seed << " step " << step;
      if (!lazy_wire.ok()) continue;
      ASSERT_EQ(*lazy_wire, *eager_wire)
          << "seed " << seed << " step " << step;
      if (rng.Bernoulli(0.8)) {
        auto lazy_open = OpenCopy(lazy[b], a, *lazy_wire);
        auto eager_open = eager[b].Open(a, *eager_wire);
        ASSERT_EQ(lazy_open.ok(), eager_open.ok());
        if (lazy_open.ok()) {
          ASSERT_EQ(*lazy_open, *eager_open)
              << "seed " << seed << " step " << step;
        }
      }
    } else {
      // A key negotiated mid-round, installed on both ends; b may or may
      // not be a provisioned neighbour (then it overwrites the slot).
      const Key128 key = Key128::Random(rng);
      lazy[a].keystore().SetLinkKey(b, key);
      lazy[b].keystore().SetLinkKey(a, key);
      eager[a].SetLinkKey(b, key);
      eager[b].SetLinkKey(a, key);
    }
  }
  const CryptoStats used = ThreadCryptoStats() - base;
  uint64_t dense_hits = 0;
  uint64_t dynamic_hits = 0;
  uint64_t first_use_builds = 0;
  for (const EagerLinkCrypto& node : eager) {
    dense_hits += node.dense_hits;
    dynamic_hits += node.dynamic_hits;
    first_use_builds += node.first_use_builds;
  }
  EXPECT_EQ(used.keystore_dense_hits, dense_hits + dynamic_hits)
      << "seed " << seed;
  EXPECT_EQ(used.schedules_built, first_use_builds) << "seed " << seed;
  EXPECT_GT(dense_hits, 0u);
  if (churn) {
    EXPECT_GT(dynamic_hits, 0u);
  }
}

TEST(LazyKeyStore, MatchesEagerStoreOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 12; ++seed) RunDifferential(seed, false);
}

TEST(LazyKeyStore, MatchesEagerStoreUnderChurnDeriver) {
  for (uint64_t seed = 101; seed <= 112; ++seed) RunDifferential(seed, true);
}

}  // namespace
}  // namespace ipda::crypto
