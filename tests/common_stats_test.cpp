#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace goodones::common {
namespace {

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
