// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library takes an explicit seed so that
// experiments are reproducible bit-for-bit. We implement xoshiro256** seeded
// via splitmix64 (the reference seeding procedure) rather than relying on
// std::mt19937, whose distribution implementations differ across standard
// libraries and would make cross-platform reproduction impossible.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace goodones::common {

/// splitmix64: used to expand a single 64-bit seed into xoshiro state.
/// Also useful directly for cheap hash-like seed derivation.
std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// FNV-1a 64-bit over `bytes`, continuing from `hash` (chained calls hash
/// the concatenation). Stable across platforms, unlike std::hash: shard
/// placement, canary stream keys and slice registry names derive from it.
/// The default basis is 1469598103934665603, one digit short of the
/// published FNV offset basis; every persisted placement and slice name
/// was computed with it, so it stays.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t hash = 1469598103934665603ULL) noexcept;

/// xoshiro256** generator with explicit-seed construction and stable,
/// hand-rolled uniform/normal transforms (identical results everywhere).
class Rng {
 public:
  /// Constructs a generator from a 64-bit seed (expanded via splitmix64).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second value for speed).
  double normal() noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) noexcept;

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i)));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace goodones::common
