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

/// The [begin, end) ranges run_shards hands its body, sorted.
std::vector<Shard> shards_of(std::size_t threads, std::size_t items, std::size_t shard_size) {
  common::ThreadPool pool(threads);
  std::mutex mutex;
  std::vector<Shard> shards;
  run_shards(pool, items, shard_size, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lock(mutex);
    shards.emplace_back(begin, end);
  });
  std::sort(shards.begin(), shards.end());
  return shards;
}

TEST(RunShards, RunsEveryItemExactlyOnce) {
  common::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  run_shards(pool, hits.size(), 0, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunShards, ZeroItemsIsNoop) {
  common::ThreadPool pool(2);
  run_shards(pool, 0, 0, [](std::size_t, std::size_t) { FAIL() << "must not run"; });
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
  run_shards(pool, 100, 25, [](std::size_t, std::size_t) {});
  EXPECT_EQ(core::counters().value("campaign.shards_done"), 4u);
  EXPECT_EQ(core::counters().value("campaign.items_done"), 100u);
}

TEST(RunShards, PropagatesBodyExceptions) {
  common::ThreadPool pool(4);
  EXPECT_THROW(run_shards(pool, 100, 0,
                          [](std::size_t begin, std::size_t end) {
                            if (begin <= 42 && 42 < end) throw std::runtime_error("shard down");
                          }),
               std::runtime_error);
}

TEST(RunShards, OtherShardsCompleteWhenOneThrows) {
  core::counters().reset();
  common::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(run_shards(pool, hits.size(), 10,
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
    run_shards(pool, 40, 10, [](std::size_t begin, std::size_t) {
      if (begin == 10) throw std::runtime_error("shard 1");
      if (begin == 30) throw std::runtime_error("shard 3");
    });
    FAIL() << "expected a rethrown shard failure";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "shard 1");
  }
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
