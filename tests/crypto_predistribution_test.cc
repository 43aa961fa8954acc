#include "crypto/predistribution.h"

#include <set>

#include <gtest/gtest.h>

#include "link_crypto_testing.h"
#include "util/random.h"

namespace ipda::crypto {
namespace {

TEST(Predistribution, RingsHaveRequestedSizeAndRange) {
  EgConfig config{100, 10};
  util::Rng rng(1);
  auto scheme = KeyPredistribution::Create(config, 20, 7, rng);
  ASSERT_TRUE(scheme.ok());
  for (PeerId node = 0; node < 20; ++node) {
    const auto& ring = scheme->ring(node);
    EXPECT_EQ(ring.size(), 10u);
    std::set<KeyId> unique(ring.begin(), ring.end());
    EXPECT_EQ(unique.size(), 10u);
    for (KeyId id : ring) EXPECT_LT(id, 100u);
    EXPECT_TRUE(std::is_sorted(ring.begin(), ring.end()));
  }
}

TEST(Predistribution, RejectsBadConfig) {
  util::Rng rng(1);
  EXPECT_FALSE(KeyPredistribution::Create({100, 0}, 5, 1, rng).ok());
  EXPECT_FALSE(KeyPredistribution::Create({10, 11}, 5, 1, rng).ok());
}

TEST(Predistribution, NodeHoldsKeyMatchesRing) {
  EgConfig config{50, 5};
  util::Rng rng(2);
  auto scheme = KeyPredistribution::Create(config, 4, 7, rng);
  ASSERT_TRUE(scheme.ok());
  for (PeerId node = 0; node < 4; ++node) {
    for (KeyId id = 0; id < 50; ++id) {
      const auto& ring = scheme->ring(node);
      const bool in_ring =
          std::find(ring.begin(), ring.end(), id) != ring.end();
      EXPECT_EQ(scheme->NodeHoldsKey(node, id), in_ring);
    }
  }
}

TEST(Predistribution, SharedKeyIdIsLowestCommon) {
  // Ring size == pool size forces full overlap: shared id must be 0.
  EgConfig config{8, 8};
  util::Rng rng(3);
  auto scheme = KeyPredistribution::Create(config, 2, 7, rng);
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme->SharedKeyId(0, 1), 0u);
}

TEST(Predistribution, SharedKeyIsSymmetric) {
  EgConfig config{200, 40};
  util::Rng rng(4);
  auto scheme = KeyPredistribution::Create(config, 10, 7, rng);
  ASSERT_TRUE(scheme.ok());
  for (PeerId a = 0; a < 10; ++a) {
    for (PeerId b = 0; b < 10; ++b) {
      EXPECT_EQ(scheme->SharedKeyId(a, b), scheme->SharedKeyId(b, a));
    }
  }
}

TEST(Predistribution, PoolKeyDeterministicPerId) {
  EgConfig config{100, 10};
  util::Rng rng(5);
  auto scheme = KeyPredistribution::Create(config, 3, 99, rng);
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme->PoolKey(7), scheme->PoolKey(7));
  EXPECT_FALSE(scheme->PoolKey(7) == scheme->PoolKey(8));
}

TEST(Predistribution, ProvisionSecuresOnlySharingLinks) {
  EgConfig config{1000, 20};  // Share probability ~0.33.
  util::Rng rng(6);
  auto scheme = KeyPredistribution::Create(config, 50, 1, rng);
  ASSERT_TRUE(scheme.ok());
  std::vector<Link> links;
  for (PeerId a = 0; a < 50; ++a) {
    for (PeerId b = static_cast<PeerId>(a + 1); b < 50; ++b) {
      links.emplace_back(a, b);
    }
  }
  std::vector<LinkCrypto> cryptos;
  for (PeerId id = 0; id < 50; ++id) cryptos.emplace_back(id);
  const double secured = scheme->Provision(links, cryptos);
  const double expected = KeyPredistribution::ShareProbability(config);
  EXPECT_NEAR(secured, expected, 0.06);
  // Spot-check consistency between Provision and SharedKeyId.
  for (const auto& [a, b] : links) {
    EXPECT_EQ(cryptos[a].keystore().HasLinkKey(b),
              scheme->SharedKeyId(a, b) != kInvalidKeyId);
  }
}

TEST(Predistribution, SecuredLinkEncryptsEndToEnd) {
  EgConfig config{20, 15};  // Dense rings: sharing almost certain.
  util::Rng rng(7);
  auto scheme = KeyPredistribution::Create(config, 2, 3, rng);
  ASSERT_TRUE(scheme.ok());
  std::vector<LinkCrypto> cryptos;
  cryptos.emplace_back(0);
  cryptos.emplace_back(1);
  ASSERT_EQ(scheme->Provision({{0, 1}}, cryptos), 1.0);
  auto wire = cryptos[0].Seal(1, util::Bytes{5, 5, 5});
  EXPECT_EQ(*OpenCopy(cryptos[1], 0, *wire), (util::Bytes{5, 5, 5}));
}

TEST(Predistribution, LinkKeyIdsParallelToLinks) {
  EgConfig config{100, 30};
  util::Rng rng(8);
  auto scheme = KeyPredistribution::Create(config, 5, 3, rng);
  ASSERT_TRUE(scheme.ok());
  std::vector<Link> links{{0, 1}, {1, 2}, {3, 4}};
  const auto ids = scheme->LinkKeyIds(links);
  ASSERT_EQ(ids.size(), 3u);
  for (size_t i = 0; i < links.size(); ++i) {
    EXPECT_EQ(ids[i], scheme->SharedKeyId(links[i].first, links[i].second));
  }
}

TEST(Predistribution, ShareProbabilityClosedForm) {
  // Tiny case computable by hand: P=4, m=2.
  // C(2,2)/C(4,2) = 1/6; share prob = 5/6.
  EXPECT_NEAR(KeyPredistribution::ShareProbability({4, 2}), 5.0 / 6.0,
              1e-12);
  // m > P/2 forces overlap.
  EXPECT_DOUBLE_EQ(KeyPredistribution::ShareProbability({10, 6}), 1.0);
  // Eschenauer-Gligor's canonical example: P=10000, m=75 gives ~0.43.
  EXPECT_NEAR(KeyPredistribution::ShareProbability({10000, 75}), 0.43,
              0.02);
}

TEST(Predistribution, EmpiricalShareRateMatchesClosedForm) {
  EgConfig config{500, 30};
  util::Rng rng(9);
  auto scheme = KeyPredistribution::Create(config, 200, 3, rng);
  ASSERT_TRUE(scheme.ok());
  size_t sharing = 0;
  size_t total = 0;
  for (PeerId a = 0; a < 200; a += 2) {
    const PeerId b = a + 1;
    ++total;
    if (scheme->SharedKeyId(a, b) != kInvalidKeyId) ++sharing;
  }
  const double expected = KeyPredistribution::ShareProbability(config);
  EXPECT_NEAR(static_cast<double>(sharing) / static_cast<double>(total),
              expected, 0.1);
}

}  // namespace
}  // namespace ipda::crypto
