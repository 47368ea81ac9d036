#include "serve/hash_ring.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace goodones::serve {

namespace {

/// 64-bit avalanche finalizer (the MurmurHash3 fmix64 constants). Raw
/// FNV-1a's tail bytes barely diffuse — sequential keys ("SA_0", "SA_1",
/// ...) and sequential vnode replicas land clustered on the circle and
/// wreck balance; finalizing restores full avalanche while staying a pure,
/// platform-stable function.
std::uint64_t avalanche(std::uint64_t hash) noexcept {
  hash ^= hash >> 33;
  hash *= 0xff51afd7ed558ccdull;
  hash ^= hash >> 33;
  hash *= 0xc4ceb9fe1a85ec53ull;
  hash ^= hash >> 33;
  return hash;
}

std::uint64_t vnode_hash(std::string_view shard, std::size_t replica) {
  // Hash "name#i" without building the string: fold the replica index into
  // the shard-name hash digit by digit (least significant first), then
  // finalize.
  std::uint64_t hash = common::fnv1a64("#", common::fnv1a64(shard));
  std::uint64_t i = replica;
  do {
    const char digit = static_cast<char>('0' + i % 10);
    hash = common::fnv1a64({&digit, 1}, hash);
    i /= 10;
  } while (i != 0);
  return avalanche(hash);
}

}  // namespace

std::uint64_t stable_hash64(std::string_view bytes) noexcept {
  return avalanche(common::fnv1a64(bytes));
}

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes == 0 ? 1 : vnodes) {}

void HashRing::add(const std::string& shard) {
  GO_EXPECTS(!shard.empty());
  if (contains(shard)) {
    throw common::PreconditionError("hash ring: shard already present: " + shard);
  }
  shards_.push_back(shard);
  insert_points(static_cast<std::uint32_t>(shards_.size() - 1));
}

bool HashRing::remove(const std::string& shard) {
  const auto it = std::find(shards_.begin(), shards_.end(), shard);
  if (it == shards_.end()) return false;
  shards_.erase(it);
  // Indices above the removed shard shifted down; rebuilding is O(total
  // vnodes · log) which is trivial at mesh scale and keeps Point indices
  // honest.
  rebuild_points();
  return true;
}

bool HashRing::contains(std::string_view shard) const noexcept {
  return std::find(shards_.begin(), shards_.end(), shard) != shards_.end();
}

std::vector<std::string> HashRing::shards() const {
  std::vector<std::string> sorted = shards_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

const std::string& HashRing::owner(std::string_view key) const {
  if (points_.empty()) {
    throw common::PreconditionError("hash ring: no shards on the ring");
  }
  const std::uint64_t hash = stable_hash64(key);
  auto it = std::upper_bound(
      points_.begin(), points_.end(), hash,
      [](std::uint64_t value, const Point& point) { return value < point.hash; });
  if (it == points_.end()) it = points_.begin();  // wrap past the top of the circle
  return shards_[it->shard];
}

void HashRing::sort_points() {
  // Tie-break equal hashes (astronomically unlikely but possible) on the
  // shard NAME, not the index — indices depend on insertion history and
  // would leak it into placement.
  std::sort(points_.begin(), points_.end(), [this](const Point& a, const Point& b) {
    return a.hash != b.hash ? a.hash < b.hash : shards_[a.shard] < shards_[b.shard];
  });
}

void HashRing::insert_points(std::uint32_t shard_index) {
  points_.reserve(points_.size() + vnodes_);
  for (std::size_t replica = 0; replica < vnodes_; ++replica) {
    points_.push_back(Point{vnode_hash(shards_[shard_index], replica), shard_index});
  }
  sort_points();
}

void HashRing::rebuild_points() {
  points_.clear();
  points_.reserve(shards_.size() * vnodes_);
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    for (std::size_t replica = 0; replica < vnodes_; ++replica) {
      points_.push_back(Point{vnode_hash(shards_[i], replica), i});
    }
  }
  sort_points();
}

}  // namespace goodones::serve
