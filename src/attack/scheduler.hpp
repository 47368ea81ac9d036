// Sharded execution of attack campaigns.
//
// A campaign over a fleet is embarrassingly parallel per window, but
// dispatching one pool task per window pays a queue round-trip per item and
// leaves no room to batch work across windows. run_shards() partitions the
// index space into contiguous shards, runs them across the thread pool and
// reports shard-level progress into core::metrics::counters().
#pragma once

#include <cstddef>
#include <functional>

#include "common/thread_pool.hpp"

namespace goodones::attack {

/// Runs body(begin, end) once per contiguous shard [begin, end) of
/// [0, items); shards run concurrently across `pool`. `shard_size` 0
/// auto-sizes from the item count alone (never from the pool), so the
/// partition is the same on every machine and worker count. Each finished
/// shard bumps the "campaign.shards_done" and "campaign.items_done"
/// counters. A body exception fails only its own shard: every other shard
/// still runs, then the lowest-index failing shard's exception is rethrown.
void run_shards(common::ThreadPool& pool, std::size_t items, std::size_t shard_size,
                const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace goodones::attack
