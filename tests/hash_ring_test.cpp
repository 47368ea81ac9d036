// Property tests for the consistent-hash ring (serve/hash_ring.hpp) — the
// mesh's placement function. Three properties carry the router's failure
// semantics and are pinned here over 1k synthetic entities:
//
//   * Determinism: placement depends only on (shard set, vnodes, key) —
//     never on insertion order or process. The mesh test pre-slices
//     bundles per shard BEFORE the router exists; this is the property
//     that makes that legal.
//   * Bounded movement: adding a shard steals keys only FOR the new shard
//     (≈ K/(N+1) of them); removing one moves only ITS keys. Unrelated
//     keys never remap.
//   * Balance: with the default 128 vnodes, the heaviest shard stays
//     within a documented factor of fair share (theory: relative spread
//     ~1/sqrt(vnodes) ≈ 9%; the pinned factor below is generous).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/hash_ring.hpp"

namespace goodones::serve {
namespace {

std::vector<std::string> synthetic_entities(std::size_t n) {
  std::vector<std::string> entities;
  entities.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    entities.push_back("SA_" + std::to_string(i));  // fleet naming convention
  }
  return entities;
}

constexpr std::size_t kEntities = 1000;

TEST(HashRing, PlacementIsDeterministicAndInsertionOrderIndependent) {
  const auto entities = synthetic_entities(kEntities);

  HashRing forward;
  for (const char* shard : {"shard-a", "shard-b", "shard-c"}) forward.add(shard);

  HashRing reversed;
  for (const char* shard : {"shard-c", "shard-b", "shard-a"}) reversed.add(shard);

  HashRing rebuilt;  // a third history: add, remove, re-add
  rebuilt.add("shard-b");
  rebuilt.add("doomed");
  rebuilt.add("shard-a");
  ASSERT_TRUE(rebuilt.remove("doomed"));
  rebuilt.add("shard-c");

  for (const auto& entity : entities) {
    const std::string owner = forward.owner(entity);
    EXPECT_EQ(owner, reversed.owner(entity)) << entity;
    EXPECT_EQ(owner, rebuilt.owner(entity)) << entity;
    // Stable across repeated queries (pure function, no internal state).
    EXPECT_EQ(owner, forward.owner(entity)) << entity;
  }
}

TEST(HashRing, BalanceWithinDocumentedFactorAcross1kEntities) {
  const auto entities = synthetic_entities(kEntities);
  for (const std::size_t n_shards : {2u, 3u, 5u, 8u}) {
    HashRing ring;  // default 128 vnodes — the mesh default
    for (std::size_t s = 0; s < n_shards; ++s) ring.add("shard-" + std::to_string(s));

    std::map<std::string, std::size_t> load;
    for (const auto& entity : entities) ++load[ring.owner(entity)];

    const double fair = static_cast<double>(kEntities) / static_cast<double>(n_shards);
    for (const auto& [shard, count] : load) {
      // Documented factor: no shard above 1.5x or below 0.5x fair share at
      // 128 vnodes (theory predicts ~±9% spread; 1.5x leaves slack for the
      // 1k-key sampling noise on top and still catches a broken hash,
      // which lands everything on one shard).
      EXPECT_LT(static_cast<double>(count), 1.5 * fair) << shard << " n=" << n_shards;
      EXPECT_GT(static_cast<double>(count), 0.5 * fair) << shard << " n=" << n_shards;
    }
    EXPECT_EQ(load.size(), n_shards) << "every shard must own something";
  }
}

TEST(HashRing, AddingAShardOnlyMovesKeysToTheNewShard) {
  const auto entities = synthetic_entities(kEntities);
  const std::size_t n_before = 4;

  HashRing ring;
  for (std::size_t s = 0; s < n_before; ++s) ring.add("shard-" + std::to_string(s));
  std::map<std::string, std::string> before;
  for (const auto& entity : entities) before[entity] = ring.owner(entity);

  ring.add("shard-new");
  std::size_t moved = 0;
  for (const auto& entity : entities) {
    const std::string& owner = ring.owner(entity);
    if (owner != before[entity]) {
      ++moved;
      // The bounded-movement property: a remapped key may only have moved
      // TO the new shard. Any other move would churn entities between
      // shards that had nothing to do with the change.
      EXPECT_EQ(owner, "shard-new") << entity << " moved " << before[entity] << " -> "
                                    << owner;
    }
  }
  // Expected movement is K/(N+1) = 200; pin a generous ceiling (2x) and a
  // floor (the new shard must actually take real load).
  EXPECT_LT(moved, 2 * kEntities / (n_before + 1)) << "excessive key movement";
  EXPECT_GT(moved, kEntities / (4 * (n_before + 1))) << "new shard took almost nothing";
}

TEST(HashRing, RemovingAShardOnlyMovesItsOwnKeys) {
  const auto entities = synthetic_entities(kEntities);

  HashRing ring;
  for (std::size_t s = 0; s < 5; ++s) ring.add("shard-" + std::to_string(s));
  std::map<std::string, std::string> before;
  for (const auto& entity : entities) before[entity] = ring.owner(entity);

  ASSERT_TRUE(ring.remove("shard-2"));
  EXPECT_FALSE(ring.remove("shard-2")) << "second remove must report absence";

  for (const auto& entity : entities) {
    const std::string& owner = ring.owner(entity);
    if (before[entity] == "shard-2") {
      EXPECT_NE(owner, "shard-2") << entity;  // orphans must re-home
    } else {
      // Everyone else's keys stay put — the drain-a-shard guarantee.
      EXPECT_EQ(owner, before[entity]) << entity;
    }
  }
}

// Placement is persisted state: a mesh provisions its shard slices from it
// and restarts against the same slices, so the hash and the ring it drives
// must give these exact values in every version.
TEST(HashRing, StableHashIsPinned) {
  EXPECT_EQ(stable_hash64("SA_0"), 0x2c2d9a31b7c2f85bull);
  EXPECT_EQ(stable_hash64("A_5"), 0x54cbb0b14f7cbc57ull);
}

TEST(HashRing, TwoShardPlacementIsPinned) {
  HashRing ring;
  ring.add("shard-0");
  ring.add("shard-2");
  const std::pair<const char*, const char*> pinned[] = {
      {"SA_0", "shard-0"}, {"SA_1", "shard-0"}, {"SB_0", "shard-2"}, {"SB_1", "shard-2"},
      {"A_2", "shard-0"},  {"A_5", "shard-0"},  {"B_1", "shard-2"},  {"B_4", "shard-2"},
  };
  for (const auto& [entity, shard] : pinned) EXPECT_EQ(ring.owner(entity), shard) << entity;
}

TEST(HashRing, EdgesAndPreconditions) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW((void)ring.owner("SA_0"), common::PreconditionError);

  ring.add("only");
  EXPECT_EQ(ring.owner("anything"), "only");
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_TRUE(ring.contains("only"));
  EXPECT_THROW(ring.add("only"), common::PreconditionError);  // duplicate

  const std::vector<std::string> listed = ring.shards();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed.front(), "only");

  EXPECT_TRUE(ring.remove("only"));
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW((void)ring.owner("anything"), common::PreconditionError);
}

}  // namespace
}  // namespace goodones::serve
