#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "domains/bgms/cohort.hpp"
#include "domains/bgms/glucose_model.hpp"
#include "domains/bgms/patient.hpp"

namespace goodones::bgms {
namespace {

TEST(PatientId, Formatting) {
  EXPECT_EQ(to_string(PatientId{Subset::kA, 5}), "A_5");
  EXPECT_EQ(to_string(PatientId{Subset::kB, 0}), "B_0");
}

TEST(Cohort, HasTwelveFixedPatients) {
  const auto params = cohort_parameters();
  ASSERT_EQ(params.size(), 12u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(params[i].id.subset, Subset::kA);
    EXPECT_EQ(params[i].id.index, i);
    EXPECT_EQ(params[6 + i].id.subset, Subset::kB);
    EXPECT_EQ(params[6 + i].id.index, i);
  }
}

TEST(Cohort, PatientParametersLookupMatchesTable) {
  const auto a5 = patient_parameters({Subset::kA, 5});
  const auto all = cohort_parameters();
  EXPECT_DOUBLE_EQ(a5.basal_glucose, all[5].basal_glucose);
  EXPECT_THROW((void)patient_parameters({Subset::kA, 6}), common::PreconditionError);
}

TEST(Simulator, ProducesRequestedLength) {
  GlucoseSimulator simulator(patient_parameters({Subset::kA, 0}), 1);
  EXPECT_EQ(simulator.run(500).size(), 500u);
}

TEST(Simulator, RejectsZeroSteps) {
  GlucoseSimulator simulator(patient_parameters({Subset::kA, 0}), 1);
  EXPECT_THROW((void)simulator.run(0), common::PreconditionError);
}

TEST(Simulator, GlucoseWithinPhysiologicalBounds) {
  for (const auto& params : cohort_parameters()) {
    GlucoseSimulator simulator(params, 7);
    for (const auto& sample : simulator.run(2000)) {
      ASSERT_GE(sample.cgm, kMinGlucose);
      ASSERT_LE(sample.cgm, kMaxGlucose);
      ASSERT_GE(sample.true_glucose, kMinGlucose);
      ASSERT_LE(sample.true_glucose, kMaxGlucose);
    }
  }
}

TEST(Simulator, DeterministicForSameSeed) {
  const auto params = patient_parameters({Subset::kB, 2});
  GlucoseSimulator a(params, 99);
  GlucoseSimulator b(params, 99);
  const auto trace_a = a.run(300);
  const auto trace_b = b.run(300);
  for (std::size_t t = 0; t < 300; ++t) {
    ASSERT_DOUBLE_EQ(trace_a[t].cgm, trace_b[t].cgm);
    ASSERT_DOUBLE_EQ(trace_a[t].bolus, trace_b[t].bolus);
  }
}

TEST(Simulator, DifferentSeedsProduceDifferentTraces) {
  const auto params = patient_parameters({Subset::kA, 1});
  const auto trace_a = GlucoseSimulator(params, 1).run(200);
  const auto trace_b = GlucoseSimulator(params, 2).run(200);
  int differences = 0;
  for (std::size_t t = 0; t < 200; ++t) {
    differences += trace_a[t].cgm != trace_b[t].cgm ? 1 : 0;
  }
  EXPECT_GT(differences, 150);
}

TEST(Simulator, MealsGenerateCarbsAndBoluses) {
  GlucoseSimulator simulator(patient_parameters({Subset::kA, 0}), 3);
  const auto trace = simulator.run(kStepsPerDay * 7);  // one week
  double total_carbs = 0.0;
  double total_bolus = 0.0;
  int meal_events = 0;
  for (const auto& sample : trace) {
    total_carbs += sample.carbs;
    total_bolus += sample.bolus;
    meal_events += sample.carbs > 0.0 ? 1 : 0;
  }
  EXPECT_GT(meal_events, 7 * 2);  // at least ~2 meals a day materialize
  EXPECT_GT(total_carbs, 7 * 60.0);
  EXPECT_GT(total_bolus, 0.0);
}

TEST(Simulator, BasalIsAlwaysReported) {
  GlucoseSimulator simulator(patient_parameters({Subset::kB, 4}), 5);
  for (const auto& sample : simulator.run(200)) ASSERT_GT(sample.basal, 0.0);
}

TEST(Simulator, StablePatientHasLowerVariabilityThanDysregulated) {
  // A_5 (stability 0.92) must show tighter glucose control than A_2 (0.08):
  // lower variance and a mean closer to the normal band.
  const auto stable = GlucoseSimulator(patient_parameters({Subset::kA, 5}), 11).run(5000);
  const auto dysregulated =
      GlucoseSimulator(patient_parameters({Subset::kA, 2}), 11).run(5000);

  std::vector<double> stable_glucose;
  std::vector<double> dysregulated_glucose;
  for (const auto& s : stable) stable_glucose.push_back(s.true_glucose);
  for (const auto& s : dysregulated) dysregulated_glucose.push_back(s.true_glucose);

  EXPECT_LT(common::stddev(stable_glucose), common::stddev(dysregulated_glucose));
  EXPECT_LT(common::mean(stable_glucose), common::mean(dysregulated_glucose));
}

TEST(CohortGeneration, SplitsTrainAndTest) {
  CohortConfig config;
  config.train_steps = 400;
  config.test_steps = 100;
  config.seed = 3;
  const auto cohort = generate_cohort(config);
  ASSERT_EQ(cohort.size(), 12u);
  for (const auto& trace : cohort) {
    EXPECT_EQ(trace.train.size(), 400u);
    EXPECT_EQ(trace.test.size(), 100u);
  }
}

TEST(CohortGeneration, TestContinuesTrainChronologically) {
  CohortConfig config;
  config.train_steps = 300;
  config.test_steps = 50;
  config.seed = 3;
  const auto single = generate_patient({Subset::kA, 0}, config);

  // Regenerate with the same seed: the first 300 samples must be identical
  // (the split is a cut, not a re-simulation).
  GlucoseSimulator simulator(patient_parameters({Subset::kA, 0}), config.seed);
  const auto full = simulator.run(350);
  for (std::size_t t = 0; t < 300; ++t) {
    ASSERT_DOUBLE_EQ(single.train[t].cgm, full[t].cgm);
  }
  for (std::size_t t = 0; t < 50; ++t) {
    ASSERT_DOUBLE_EQ(single.test[t].cgm, full[300 + t].cgm);
  }
}

TEST(CohortGeneration, PatientsDifferFromEachOther) {
  CohortConfig config;
  config.train_steps = 200;
  config.test_steps = 10;
  const auto cohort = generate_cohort(config);
  int identical = 0;
  for (std::size_t t = 0; t < 200; ++t) {
    identical += cohort[0].train[t].cgm == cohort[1].train[t].cgm ? 1 : 0;
  }
  EXPECT_LT(identical, 20);
}

/// The design table in cohort.cpp drives the paper's Table II: A_5, B_1 and
/// B_2 must be the tightly-controlled patients.
TEST(CohortDesign, StabilityOrderingMatchesPaperClusters) {
  const auto params = cohort_parameters();
  const auto& a5 = params[5];
  const auto& b1 = params[7];
  const auto& b2 = params[8];
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i == 5 || i == 7 || i == 8) continue;
    // Less-vulnerable patients sit closer to normal and revert faster.
    EXPECT_LT(a5.basal_glucose, params[i].basal_glucose) << "vs patient " << i;
    EXPECT_LT(b2.basal_glucose, params[i].basal_glucose) << "vs patient " << i;
    EXPECT_GT(a5.return_rate, params[i].return_rate) << "vs patient " << i;
    EXPECT_GT(b1.return_rate, params[i].return_rate) << "vs patient " << i;
  }
}

class CohortSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CohortSeedSweep, TracesBoundedForAllSeeds) {
  CohortConfig config;
  config.train_steps = 300;
  config.test_steps = 60;
  config.seed = GetParam();
  for (const auto& trace : generate_cohort(config)) {
    for (const auto& s : trace.train) {
      ASSERT_GE(s.cgm, kMinGlucose);
      ASSERT_LE(s.cgm, kMaxGlucose);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CohortSeedSweep, ::testing::Values(1ULL, 7ULL, 2025ULL, 31337ULL));

}  // namespace
}  // namespace goodones::bgms
