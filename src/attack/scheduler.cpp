#include "attack/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "core/metrics.hpp"

namespace goodones::attack {

void run_shards(common::ThreadPool& pool, std::size_t items, std::size_t shard_size,
                const std::function<void(std::size_t, std::size_t)>& body) {
  if (items == 0) return;
  if (shard_size == 0) {
    // 64 shards keeps pools up to ~16 workers busy with several shards each
    // while dispatch cost stays negligible.
    constexpr std::size_t kAutoShards = 64;
    shard_size = std::max<std::size_t>(1, (items + kAutoShards - 1) / kAutoShards);
  }
  const std::size_t shards = (items + shard_size - 1) / shard_size;
  core::CounterRegistry& counters = core::counters();

  // Exceptions are contained per shard (parallel_for packs several shards
  // into one pool task, and a raw throw there would abort the chunk's later
  // shards); the lowest-index failure is rethrown after every shard ran.
  std::vector<std::exception_ptr> errors(shards);
  common::parallel_for(pool, shards, [&](std::size_t s) {
    try {
      const std::size_t begin = s * shard_size;
      const std::size_t end = std::min(items, begin + shard_size);
      body(begin, end);
      counters.add("campaign.items_done", end - begin);
      counters.add("campaign.shards_done", 1);
    } catch (...) {
      errors[s] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace goodones::attack
