#include "attack/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "core/metrics.hpp"

namespace goodones::attack {

void run_shards(common::ThreadPool& pool, std::span<const std::size_t> items,
                std::size_t shard_size,
                const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  struct Shard {
    std::size_t group, begin, end;
  };
  std::vector<Shard> shards;
  for (std::size_t group = 0; group < items.size(); ++group) {
    // 64 shards per group keeps pools up to ~16 workers busy with several
    // shards each while dispatch cost stays negligible.
    constexpr std::size_t kAutoShards = 64;
    const std::size_t size =
        shard_size != 0 ? shard_size
                        : std::max<std::size_t>(1, (items[group] + kAutoShards - 1) / kAutoShards);
    for (std::size_t begin = 0; begin < items[group]; begin += size) {
      shards.push_back({group, begin, std::min(items[group], begin + size)});
    }
  }
  core::CounterRegistry& counters = core::counters();

  // Exceptions are contained per shard (parallel_for packs several shards
  // into one pool task, and a raw throw there would abort the chunk's later
  // shards); the lowest-index failure is rethrown after every shard ran.
  std::vector<std::exception_ptr> errors(shards.size());
  common::parallel_for(pool, shards.size(), [&](std::size_t s) {
    const Shard& shard = shards[s];
    try {
      body(shard.group, shard.begin, shard.end);
      counters.add("campaign.items_done", shard.end - shard.begin);
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
