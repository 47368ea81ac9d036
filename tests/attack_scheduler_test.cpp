#include "attack/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/metrics.hpp"

namespace goodones::attack {
namespace {

using Shard = std::pair<std::size_t, std::size_t>;

/// run_shards over one group of `items`: body(begin, end).
template <typename Body>
void run_one_group(common::ThreadPool& pool, std::size_t items, std::size_t shard_size,
                   Body body) {
  const std::vector<std::size_t> groups{items};
  run_shards(pool, groups, shard_size,
             [&](std::size_t group, std::size_t begin, std::size_t end) {
               EXPECT_EQ(group, 0u);
               body(begin, end);
             });
}

/// The [begin, end) ranges run_shards hands its body, sorted.
std::vector<Shard> shards_of(std::size_t threads, std::size_t items, std::size_t shard_size) {
  common::ThreadPool pool(threads);
  std::mutex mutex;
  std::vector<Shard> shards;
  run_one_group(pool, items, shard_size, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lock(mutex);
    shards.emplace_back(begin, end);
  });
  std::sort(shards.begin(), shards.end());
  return shards;
}

TEST(RunShards, RunsEveryItemExactlyOnce) {
  common::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  run_one_group(pool, hits.size(), 0, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunShards, ZeroItemsIsNoop) {
  common::ThreadPool pool(2);
  run_one_group(pool, 0, 0, [](std::size_t, std::size_t) { FAIL() << "must not run"; });
  run_shards(pool, std::vector<std::size_t>{}, 0,
             [](std::size_t, std::size_t, std::size_t) { FAIL() << "must not run"; });
}

TEST(RunShards, ShardBoundsHonorExplicitShardSize) {
  const std::vector<Shard> shards = shards_of(2, 95, 10);
  ASSERT_EQ(shards.size(), 10u);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(shards[s].first, s * 10);
    EXPECT_EQ(shards[s].second, std::min<std::size_t>(95, s * 10 + 10));
  }
  EXPECT_EQ(shards_of(2, 100, 10).size(), 10u);
  EXPECT_EQ(shards_of(2, 101, 10).size(), 11u);
}

TEST(RunShards, AutoShardSizeDependsOnItemCountNotPool) {
  // The partition must be the same on every machine: auto sizing reads the
  // item count only, never the worker count.
  for (const std::size_t items : {std::size_t{1}, std::size_t{63}, std::size_t{100},
                                  std::size_t{1000}}) {
    const std::vector<Shard> one = shards_of(1, items, 0);
    EXPECT_EQ(one, shards_of(8, items, 0)) << items << " items";
    EXPECT_LE(one.size(), 64u) << items << " items";
    EXPECT_EQ(one.back().second, items);
  }
}

TEST(RunShards, ReportsProgressCounters) {
  core::counters().reset();
  common::ThreadPool pool(4);
  run_one_group(pool, 100, 25, [](std::size_t, std::size_t) {});
  EXPECT_EQ(core::counters().value("campaign.shards_done"), 4u);
  EXPECT_EQ(core::counters().value("campaign.items_done"), 100u);
}

TEST(RunShards, PropagatesBodyExceptions) {
  common::ThreadPool pool(4);
  EXPECT_THROW(run_one_group(pool, 100, 0,
                             [](std::size_t begin, std::size_t end) {
                               if (begin <= 42 && 42 < end) {
                                 throw std::runtime_error("shard down");
                               }
                             }),
               std::runtime_error);
}

TEST(RunShards, OtherShardsCompleteWhenOneThrows) {
  core::counters().reset();
  common::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(run_one_group(pool, hits.size(), 10,
                             [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i) {
                                 if (i == 5) throw std::runtime_error("shard 0 dies");
                                 hits[i].fetch_add(1);
                               }
                             }),
               std::runtime_error);
  // Shard 0 stops at item 5; every item of the other nine shards ran.
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  for (std::size_t i = 5; i < 10; ++i) EXPECT_EQ(hits[i].load(), 0) << i;
  for (std::size_t i = 10; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // The failed shard is not counted as done.
  EXPECT_EQ(core::counters().value("campaign.shards_done"), 9u);
  EXPECT_EQ(core::counters().value("campaign.items_done"), 90u);
}

TEST(RunShards, RethrowsLowestIndexFailure) {
  common::ThreadPool pool(4);
  try {
    run_one_group(pool, 40, 10, [](std::size_t begin, std::size_t) {
      if (begin == 10) throw std::runtime_error("shard 1");
      if (begin == 30) throw std::runtime_error("shard 3");
    });
    FAIL() << "expected a rethrown shard failure";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "shard 1");
  }
}

// --- several groups in one sweep ---------------------------------------------

TEST(RunShards, GroupsAreShardedEachOnItsOwnAndNeverMixed) {
  // Each group is cut exactly as a one-group call would cut it (explicit
  // size, or auto-sized from its own count), and a shard never spans two
  // groups.
  const std::vector<std::size_t> items{95, 0, 7, 1000};
  for (const std::size_t shard_size : {std::size_t{0}, std::size_t{10}}) {
    common::ThreadPool pool(4);
    std::mutex mutex;
    std::vector<std::vector<Shard>> shards(items.size());
    run_shards(pool, items, shard_size,
               [&](std::size_t group, std::size_t begin, std::size_t end) {
                 const std::lock_guard<std::mutex> lock(mutex);
                 shards[group].emplace_back(begin, end);
               });
    for (std::size_t g = 0; g < items.size(); ++g) {
      std::sort(shards[g].begin(), shards[g].end());
      EXPECT_EQ(shards[g], shards_of(1, items[g], shard_size))
          << "group " << g << " shard_size " << shard_size;
    }
  }
}

TEST(RunShards, CountersSumOverGroups) {
  core::counters().reset();
  common::ThreadPool pool(4);
  run_shards(pool, std::vector<std::size_t>{100, 30, 0, 5}, 25,
             [](std::size_t, std::size_t, std::size_t) {});
  EXPECT_EQ(core::counters().value("campaign.shards_done"), 4u + 2u + 0u + 1u);
  EXPECT_EQ(core::counters().value("campaign.items_done"), 135u);
}

TEST(RunShards, FailureInOneGroupLetsEveryOtherShardRunAndRethrowsTheFirst) {
  core::counters().reset();
  common::ThreadPool pool(4);
  const std::vector<std::size_t> items{20, 30, 40};
  std::vector<std::vector<std::atomic<int>>> hits;
  for (const std::size_t n : items) hits.emplace_back(n);
  try {
    run_shards(pool, items, 10, [&](std::size_t group, std::size_t begin, std::size_t end) {
      if (group == 2 && begin == 0) throw std::runtime_error("group 2 shard 0");
      if (group == 1 && begin == 10) throw std::runtime_error("group 1 shard 1");
      for (std::size_t i = begin; i < end; ++i) hits[group][i].fetch_add(1);
    });
    FAIL() << "expected a rethrown shard failure";
  } catch (const std::runtime_error& error) {
    // The first failing shard in group-major order wins.
    EXPECT_STREQ(error.what(), "group 1 shard 1");
  }
  for (std::size_t g = 0; g < items.size(); ++g) {
    for (std::size_t i = 0; i < items[g]; ++i) {
      const bool failed = (g == 1 && i >= 10 && i < 20) || (g == 2 && i < 10);
      EXPECT_EQ(hits[g][i].load(), failed ? 0 : 1) << "group " << g << " item " << i;
    }
  }
  EXPECT_EQ(core::counters().value("campaign.shards_done"), 9u - 2u);
  EXPECT_EQ(core::counters().value("campaign.items_done"), 90u - 20u);
}

TEST(Counters, AccumulateSnapshotAndReset) {
  core::CounterRegistry registry;
  registry.add("a.x", 3);
  registry.add("a.x", 4);
  registry.add("a.y", 1);
  EXPECT_EQ(registry.value("a.x"), 7u);
  EXPECT_EQ(registry.value("missing"), 0u);
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "a.x");
  EXPECT_EQ(snapshot[1].first, "a.y");
  registry.reset();
  EXPECT_EQ(registry.value("a.x"), 0u);
  EXPECT_TRUE(registry.snapshot().empty());
}

}  // namespace
}  // namespace goodones::attack
