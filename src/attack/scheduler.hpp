// Sharded execution of attack campaigns.
//
// A campaign over a fleet is embarrassingly parallel per window, but
// dispatching one pool task per window pays a queue round-trip per item and
// leaves no room to batch work across windows. run_shards() partitions each
// group's index space (one group per entity) into contiguous shards, runs
// every group's shards in one sweep across the thread pool and reports
// shard-level progress into core::metrics::counters().
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "common/thread_pool.hpp"

namespace goodones::attack {

/// Runs body(group, begin, end) once per contiguous shard [begin, end) of
/// each group's [0, items[group]). Every group's shards run in one
/// parallel_for across `pool`, in group-major order, so a fleet pays one
/// pool barrier instead of one per group; a shard never spans two groups.
/// `shard_size` 0 auto-sizes each group from its own item count alone
/// (never from the pool or the other groups), so the partition is the same
/// on every machine and worker count. Each finished shard bumps the
/// "campaign.shards_done" and "campaign.items_done" counters. A body
/// exception fails only its own shard: every other shard still runs, then
/// the exception of the failing shard that comes first in group-major order
/// is rethrown.
void run_shards(common::ThreadPool& pool, std::span<const std::size_t> items,
                std::size_t shard_size,
                const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace goodones::attack
