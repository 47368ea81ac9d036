#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace goodones::common {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 9.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 9.25);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(0, 5));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-10, -2);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -2);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(50.0, 4.0);
  EXPECT_NEAR(sum / n, 50.0, 0.2);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto shuffled = v;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, v);
}

TEST(Rng, ShuffleSmallInputsNoCrash) {
  Rng rng(37);
  std::vector<int> empty;
  rng.shuffle(empty);
  std::vector<int> one{42};
  rng.shuffle(one);
  EXPECT_EQ(one.front(), 42);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  const auto sample = rng.sample_without_replacement(100, 20);
  EXPECT_EQ(sample.size(), 20u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto i : sample) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(43);
  const auto sample = rng.sample_without_replacement(5, 5);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversized) {
  Rng rng(43);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4), std::logic_error);
}

TEST(SplitMix, KnownFirstOutputsDiffer) {
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 1;
  EXPECT_NE(splitmix64_next(s1), splitmix64_next(s2));
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformStaysInRangeForAllSeeds) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST_P(RngSeedSweep, NormalIsFiniteForAllSeeds) {
  Rng rng(GetParam());
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(std::isfinite(rng.normal()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xFFFFFFFFFFFFFFFFULL,
                                           0xDEADBEEFULL, 2025ULL));

}  // namespace
}  // namespace goodones::common
