#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/labels.hpp"
#include "data/scaler.hpp"
#include "data/timeseries.hpp"
#include "data/window.hpp"
#include "domains/bgms/cohort.hpp"
#include "domains/bgms/glucose_state.hpp"

namespace goodones::data {
namespace {

using bgms::classify;
using bgms::derive_meal_context;
using bgms::glycemic_thresholds;
using bgms::kPostprandialSteps;

constexpr std::size_t kChannels = 4;  // BGMS layout, used as a stand-in width

TEST(GlycemicThresholds, FastingThresholds) {
  EXPECT_EQ(classify(69.9, Regime::kBaseline), StateLabel::kLow);
  EXPECT_EQ(classify(70.0, Regime::kBaseline), StateLabel::kNormal);
  EXPECT_EQ(classify(125.0, Regime::kBaseline), StateLabel::kNormal);
  EXPECT_EQ(classify(125.1, Regime::kBaseline), StateLabel::kHigh);
}

TEST(GlycemicThresholds, PostprandialThresholds) {
  EXPECT_EQ(classify(150.0, Regime::kActive), StateLabel::kNormal);
  EXPECT_EQ(classify(180.0, Regime::kActive), StateLabel::kNormal);
  EXPECT_EQ(classify(180.1, Regime::kActive), StateLabel::kHigh);
  EXPECT_EQ(classify(60.0, Regime::kActive), StateLabel::kLow);
}

TEST(GlycemicThresholds, HyperThresholdByContext) {
  EXPECT_DOUBLE_EQ(glycemic_thresholds().high(Regime::kBaseline), 125.0);
  EXPECT_DOUBLE_EQ(glycemic_thresholds().high(Regime::kActive), 180.0);
}

TEST(GlycemicThresholds, Names) {
  EXPECT_STREQ(to_string(StateLabel::kLow), "Low");
}

TEST(MealRegime, DerivationWindowIsTwoHours) {
  std::vector<double> carbs(60, 0.0);
  carbs[10] = 45.0;
  const auto regimes = derive_meal_context(carbs);
  for (std::size_t t = 0; t < 10; ++t) EXPECT_EQ(regimes[t], Regime::kBaseline);
  // Postprandial from the meal step through kPostprandialSteps after it.
  for (std::size_t t = 10; t <= 10 + kPostprandialSteps; ++t) {
    EXPECT_EQ(regimes[t], Regime::kActive) << "t=" << t;
  }
  EXPECT_EQ(regimes[10 + kPostprandialSteps + 1], Regime::kBaseline);
}

TEST(MealRegime, BackToBackMealsExtendWindow) {
  std::vector<double> carbs(80, 0.0);
  carbs[5] = 30.0;
  carbs[25] = 20.0;  // second meal within the first's window
  const auto regimes = derive_meal_context(carbs);
  for (std::size_t t = 5; t <= 25 + kPostprandialSteps; ++t) {
    EXPECT_EQ(regimes[t], Regime::kActive);
  }
}

TEST(MealRegime, NoMealsAllFasting) {
  const std::vector<double> carbs(30, 0.0);
  for (const auto r : derive_meal_context(carbs)) EXPECT_EQ(r, Regime::kBaseline);
}

TEST(NormalRatio, CountsNormalFraction) {
  const std::vector<double> glucose{100.0, 60.0, 130.0, 100.0};
  const std::vector<Regime> regimes(4, Regime::kBaseline);
  // 100 normal, 60 hypo, 130 fasting-hyper, 100 normal -> 2/4.
  EXPECT_DOUBLE_EQ(normal_ratio(glucose, regimes, glycemic_thresholds()), 0.5);
}

TEST(NormalRatio, RegimeChangesClassification) {
  const std::vector<double> glucose{150.0};
  const std::vector<Regime> fasting{Regime::kBaseline};
  const std::vector<Regime> post{Regime::kActive};
  EXPECT_DOUBLE_EQ(normal_ratio(glucose, fasting, glycemic_thresholds()), 0.0);  // 150 > 125
  EXPECT_DOUBLE_EQ(normal_ratio(glucose, post, glycemic_thresholds()), 1.0);     // 150 < 180
}

TEST(NormalRatio, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(normal_ratio({}, {}, glycemic_thresholds()), 0.0);
}

TEST(Series, ConversionPreservesChannels) {
  bgms::CohortConfig config;
  config.train_steps = 100;
  config.test_steps = 10;
  const auto trace = bgms::generate_patient({bgms::Subset::kA, 0}, config);
  const TelemetrySeries series = bgms::to_series(trace.train);
  ASSERT_EQ(series.steps(), 100u);
  ASSERT_EQ(series.values.cols(), bgms::kNumChannels);
  for (std::size_t t = 0; t < 100; ++t) {
    ASSERT_DOUBLE_EQ(series.values(t, bgms::kCgm), trace.train[t].cgm);
    ASSERT_DOUBLE_EQ(series.values(t, bgms::kCarbs), trace.train[t].carbs);
    ASSERT_DOUBLE_EQ(series.true_target[t], trace.train[t].true_glucose);
  }
  EXPECT_EQ(series.regimes.size(), 100u);
}

TEST(Windows, CountAndGeometry) {
  TelemetrySeries series;
  series.values = nn::Matrix(100, kChannels);
  series.true_target.assign(100, 110.0);
  series.regimes.assign(100, Regime::kBaseline);
  WindowConfig config;
  config.seq_len = 12;
  config.step = 1;
  config.horizon = 6;
  const auto windows = make_windows(series, config);
  // Starts 0..(100-12-6) inclusive.
  EXPECT_EQ(windows.size(), 83u);
  EXPECT_EQ(windows.front().features.rows(), 12u);
  EXPECT_EQ(windows.front().end_index, 11u);
  EXPECT_EQ(windows.back().end_index, 93u);
}

TEST(Windows, TargetComesFromHorizon) {
  TelemetrySeries series;
  series.values = nn::Matrix(30, kChannels);
  series.true_target.resize(30);
  for (std::size_t t = 0; t < 30; ++t) series.true_target[t] = static_cast<double>(t);
  series.regimes.assign(30, Regime::kBaseline);
  series.regimes[17] = Regime::kActive;

  WindowConfig config;
  config.seq_len = 10;
  config.step = 1;
  config.horizon = 8;
  const auto windows = make_windows(series, config);
  ASSERT_FALSE(windows.empty());
  // First window covers steps 0..9; target at index 9 + 8 = 17.
  EXPECT_DOUBLE_EQ(windows.front().target_value, 17.0);
  EXPECT_EQ(windows.front().regime, Regime::kActive);
}

TEST(Windows, StrideSkipsStarts) {
  TelemetrySeries series;
  series.values = nn::Matrix(50, kChannels);
  series.true_target.assign(50, 100.0);
  series.regimes.assign(50, Regime::kBaseline);
  WindowConfig config;
  config.seq_len = 5;
  config.step = 4;
  config.horizon = 2;
  const auto windows = make_windows(series, config);
  for (std::size_t i = 1; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].end_index - windows[i - 1].end_index, 4u);
  }
}

TEST(Windows, TooShortSeriesYieldsNothing) {
  TelemetrySeries series;
  series.values = nn::Matrix(10, kChannels);
  series.true_target.assign(10, 100.0);
  series.regimes.assign(10, Regime::kBaseline);
  WindowConfig config;
  config.seq_len = 12;
  config.horizon = 6;
  EXPECT_TRUE(make_windows(series, config).empty());
}

TEST(Flatten, RowMajorOrder) {
  nn::Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const auto flat = flatten(m);
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_DOUBLE_EQ(flat[0], 1.0);
  EXPECT_DOUBLE_EQ(flat[1], 2.0);
  EXPECT_DOUBLE_EQ(flat[2], 3.0);
  EXPECT_DOUBLE_EQ(flat[3], 4.0);
}

TEST(MinMaxScaler, TransformRoundTrip) {
  nn::Matrix data{{0.0, 10.0}, {5.0, 20.0}, {10.0, 30.0}};
  MinMaxScaler scaler;
  scaler.fit(data);
  const nn::Matrix scaled = scaler.transform(data);
  EXPECT_DOUBLE_EQ(scaled(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(scaled(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(scaled(1, 1), 0.5);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      ASSERT_NEAR(scaler.inverse_transform_value(scaled(r, c), c), data(r, c), 1e-12);
    }
  }
}

TEST(MinMaxScaler, OutOfRangeMapsOutsideUnit) {
  nn::Matrix data{{0.0}, {10.0}};
  MinMaxScaler scaler;
  scaler.fit(data);
  nn::Matrix extreme{{20.0}};
  EXPECT_DOUBLE_EQ(scaler.transform(extreme)(0, 0), 2.0);  // deliberately unclamped
}

TEST(MinMaxScaler, ConstantColumnMapsToHalf) {
  nn::Matrix data{{5.0}, {5.0}};
  MinMaxScaler scaler;
  scaler.fit(data);
  EXPECT_DOUBLE_EQ(scaler.transform(data)(0, 0), 0.5);
}

TEST(MinMaxScaler, PartialFitWidensRange) {
  MinMaxScaler scaler;
  nn::Matrix first{{0.0}, {10.0}};
  nn::Matrix second{{-10.0}, {5.0}};
  scaler.partial_fit(first);
  scaler.partial_fit(second);
  // The fitted range is [-10, 10]: its ends map to 0 and 1 and back.
  EXPECT_DOUBLE_EQ(scaler.transform_value(-10.0, 0), 0.0);
  EXPECT_DOUBLE_EQ(scaler.transform_value(10.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(scaler.inverse_transform_value(0.0, 0), -10.0);
  EXPECT_DOUBLE_EQ(scaler.inverse_transform_value(1.0, 0), 10.0);
}

TEST(MinMaxScaler, SetColumnRangePins) {
  MinMaxScaler scaler;
  nn::Matrix data{{100.0}, {200.0}};
  scaler.fit(data);
  scaler.set_column_range(0, 40.0, 499.0);
  EXPECT_DOUBLE_EQ(scaler.inverse_transform_value(0.0, 0), 40.0);
  EXPECT_NEAR(scaler.transform_value(40.0, 0), 0.0, 1e-12);
  EXPECT_NEAR(scaler.transform_value(499.0, 0), 1.0, 1e-12);
}

TEST(MinMaxScaler, UnfittedUseThrows) {
  MinMaxScaler scaler;
  EXPECT_THROW((void)scaler.transform(nn::Matrix(1, 1)), common::PreconditionError);
}

TEST(StandardScaler, ZeroMeanUnitVariance) {
  nn::Matrix data(100, 2);
  common::Rng rng(5);
  for (std::size_t r = 0; r < 100; ++r) {
    data(r, 0) = rng.normal(50.0, 10.0);
    data(r, 1) = rng.normal(-3.0, 0.5);
  }
  StandardScaler scaler;
  scaler.fit(data);
  const nn::Matrix z = scaler.transform(data);
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t r = 0; r < 100; ++r) {
      sum += z(r, c);
      sum_sq += z(r, c) * z(r, c);
    }
    EXPECT_NEAR(sum / 100.0, 0.0, 1e-10);
    EXPECT_NEAR(sum_sq / 99.0, 1.0, 0.05);
  }
}

TEST(StandardScaler, ConstantColumnPassesThroughCentered) {
  nn::Matrix data{{5.0}, {5.0}, {5.0}};
  StandardScaler scaler;
  scaler.fit(data);
  EXPECT_DOUBLE_EQ(scaler.transform(data)(0, 0), 0.0);
}

}  // namespace
}  // namespace goodones::data
