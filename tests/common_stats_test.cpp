#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace goodones::common {
namespace {

TEST(RunningStats, MatchesBatchComputation) {
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  RunningStats rs;
  for (const double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_DOUBLE_EQ(rs.mean(), mean(xs));
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, SingleValueHasZeroVariance) {
  RunningStats rs;
  rs.add(7.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 7.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(3);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(10.0, 3.0);
    whole.add(x);
    (i < 250 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, VarianceRequiresTwo) {
  const std::vector<double> one{5.0};
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
}

TEST(Stats, KnownVariance) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Sample variance with n-1 denominator.
  EXPECT_NEAR(variance(xs), 4.571428571428571, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt(4.571428571428571), 1e-12);
}

TEST(Stats, MedianOddAndEven) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, MedianThrowsOnEmpty) {
  EXPECT_THROW((void)median({}), PreconditionError);
}

TEST(Stats, QuantileEndpoints) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.75), 7.5);
}

TEST(Stats, QuantileRejectsBadInputs) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)quantile(xs, -0.1), PreconditionError);
  EXPECT_THROW((void)quantile(xs, 1.1), PreconditionError);
  EXPECT_THROW((void)quantile({}, 0.5), PreconditionError);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
  std::vector<double> negated;
  for (const double x : b) negated.push_back(-x);
  EXPECT_NEAR(pearson(a, negated), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVarianceIsZero) {
  const std::vector<double> a{1.0, 1.0, 1.0};
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(a, b), 0.0);
}

TEST(Stats, PearsonLengthMismatchThrows) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.0};
  EXPECT_THROW((void)pearson(a, b), PreconditionError);
}

TEST(Stats, MinMaxNormalizeMapsToUnit) {
  const std::vector<double> xs{5.0, 10.0, 7.5};
  const auto out = min_max_normalize(xs);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 0.5);
}

TEST(Stats, MinMaxNormalizeConstantMapsToHalf) {
  const std::vector<double> xs{4.0, 4.0, 4.0};
  for (const double v : min_max_normalize(xs)) EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(Stats, MinMaxNormalizeEmptyStaysEmpty) {
  EXPECT_TRUE(min_max_normalize({}).empty());
}

TEST(Stats, RmseAndMaeKnownValues) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{2.0, 2.0, 5.0};
  EXPECT_NEAR(rmse(a, b), std::sqrt((1.0 + 0.0 + 4.0) / 3.0), 1e-12);
  EXPECT_NEAR(mae(a, b), 1.0, 1e-12);
}

TEST(Stats, RmseIdenticalIsZero) {
  const std::vector<double> a{1.0, 2.0};
  EXPECT_DOUBLE_EQ(rmse(a, a), 0.0);
  EXPECT_DOUBLE_EQ(mae(a, a), 0.0);
}

class QuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantileSweep, QuantileIsMonotoneAndBounded) {
  Rng rng(71);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(0.0, 5.0));
  const double q = GetParam();
  const double value = quantile(xs, q);
  EXPECT_GE(value, quantile(xs, 0.0));
  EXPECT_LE(value, quantile(xs, 1.0));
  if (q >= 0.1) {
    EXPECT_GE(value, quantile(xs, q - 0.1) - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, QuantileSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0));

}  // namespace
}  // namespace goodones::common
