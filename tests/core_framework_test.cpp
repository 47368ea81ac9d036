// End-to-end pipeline tests on a miniature configuration: cohort -> models
// -> attack -> risk profiles -> clustering -> selective training -> metrics.
// Kept deliberately small so the whole file runs in tens of seconds.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include <cmath>

#include "common/error.hpp"
#include "core/framework.hpp"
#include "domains/bgms/adapter.hpp"

namespace goodones::core {
namespace {

std::shared_ptr<const DomainAdapter> bgms_domain() {
  static const auto domain = std::make_shared<bgms::BgmsDomain>();
  return domain;
}

FrameworkConfig mini_config() {
  FrameworkConfig config = bgms_domain()->prepare(FrameworkConfig::fast());
  config.population.train_steps = 1200;
  config.population.test_steps = 400;
  config.registry.forecaster.hidden = 10;
  config.registry.forecaster.head_hidden = 8;
  config.registry.forecaster.epochs = 3;
  config.registry.train_window_step = 6;
  config.registry.aggregate_window_step = 40;
  config.profiling_campaign.window_step = 10;
  config.evaluation_campaign.window_step = 10;
  // The miniature forecaster is weak; lower the harm bar so the simulated
  // attack still produces successes to train and evaluate on.
  config.profiling_campaign.attack.harm_threshold = 220.0;
  config.evaluation_campaign.attack.harm_threshold = 220.0;
  config.detector_benign_stride = 10;
  config.detectors.knn.max_points_per_class = 600;
  config.detectors.ocsvm.max_train_points = 300;
  config.detectors.madgan.epochs = 3;
  config.detectors.madgan.max_train_windows = 200;
  config.detectors.madgan.inversion_steps = 6;
  config.detectors.madgan.calibration_windows = 48;
  config.random_runs = 2;
  config.seed = 424242;
  return config;
}

/// One shared framework instance: the pipeline stages are exercised once
/// and inspected by several tests.
RiskProfilingFramework& shared_framework() {
  static RiskProfilingFramework framework(bgms_domain(), mini_config());
  return framework;
}

TEST(Framework, RejectsZeroRandomRuns) {
  // The random strategy's entry averages its runs' training-set sizes, so a
  // config without runs is refused before anything trains.
  FrameworkConfig config = mini_config();
  config.random_runs = 0;
  EXPECT_THROW(RiskProfilingFramework(bgms_domain(), config), common::PreconditionError);
}

TEST(Framework, CohortHasTwelveEntities) {
  EXPECT_EQ(shared_framework().entities().size(), 12u);
  EXPECT_EQ(shared_framework().entities()[5].name, "A_5");
  EXPECT_EQ(shared_framework().entities()[6].subset, 1u);
}

TEST(Framework, ProfilingProducesTwelveProfiles) {
  const auto& profiling = shared_framework().profiling();
  ASSERT_EQ(profiling.profiles.size(), 12u);
  for (const auto& profile : profiling.profiles) {
    EXPECT_FALSE(profile.values.empty());
    for (const double r : profile.values) {
      ASSERT_GE(r, 0.0);
      ASSERT_TRUE(std::isfinite(r));
    }
  }
}

TEST(Framework, ClustersPartitionTheCohort) {
  const auto& clusters = shared_framework().profiling().clusters;
  std::set<std::size_t> all;
  for (const auto p : clusters.less_vulnerable) all.insert(p);
  for (const auto p : clusters.more_vulnerable) all.insert(p);
  EXPECT_EQ(all.size(), 12u);
  EXPECT_FALSE(clusters.less_vulnerable.empty());
  EXPECT_FALSE(clusters.more_vulnerable.empty());
}

TEST(Framework, LessVulnerableClusterHasLowerAttackSuccess) {
  const auto& profiling = shared_framework().profiling();
  double less = 0.0;
  double more = 0.0;
  for (const auto p : profiling.clusters.less_vulnerable) {
    less += profiling.train_attack_rates[p].overall_rate();
  }
  for (const auto p : profiling.clusters.more_vulnerable) {
    more += profiling.train_attack_rates[p].overall_rate();
  }
  less /= static_cast<double>(profiling.clusters.less_vulnerable.size());
  more /= static_cast<double>(profiling.clusters.more_vulnerable.size());
  EXPECT_LE(less, more);
}

TEST(Framework, DendrogramsCoverEachSubset) {
  const auto& profiling = shared_framework().profiling();
  ASSERT_EQ(profiling.dendrograms.size(), 2u);
  EXPECT_EQ(profiling.dendrograms[0].num_leaves(), 6u);
  EXPECT_EQ(profiling.dendrograms[1].num_leaves(), 6u);
  ASSERT_EQ(profiling.subset_members.size(), 2u);
  EXPECT_EQ(profiling.subset_members[0].front(), 0u);
  EXPECT_EQ(profiling.subset_members[1].front(), 6u);
}

TEST(Framework, BenignRatiosAreProbabilities) {
  const auto& ratios = shared_framework().profiling().benign_normal_ratio;
  ASSERT_EQ(ratios.size(), 12u);
  for (const double r : ratios) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(Framework, StablePatientsHaveHigherNormalRatio) {
  // Cohort design: A_5 (index 5) and B_2 (index 8) are the most stable; the
  // paper's Fig. 4 shows exactly this ordering vs the dysregulated A_2.
  const auto& ratios = shared_framework().profiling().benign_normal_ratio;
  EXPECT_GT(ratios[5], ratios[2]);
  EXPECT_GT(ratios[8], ratios[2]);
}

TEST(Framework, TestOutcomesAvailablePerEntity) {
  auto& framework = shared_framework();
  const auto& outcomes = framework.test_outcomes(0);
  EXPECT_FALSE(outcomes.empty());
  for (const auto& outcome : outcomes) {
    EXPECT_NE(outcome.true_state, data::StateLabel::kHigh);
  }
  EXPECT_THROW((void)framework.test_outcomes(12), common::PreconditionError);
}

TEST(Framework, ScaledWindowsAreInUnitBox) {
  auto& framework = shared_framework();
  const auto windows = framework.benign_train_windows(3);
  ASSERT_FALSE(windows.empty());
  for (const auto& w : windows) {
    for (std::size_t t = 0; t < w.rows(); ++t) {
      for (const double v : w.row(t)) {
        ASSERT_GE(v, -0.01);
        ASSERT_LE(v, 1.01);
      }
    }
  }
}

TEST(Framework, EvaluateStrategyProducesCoherentConfusion) {
  auto& framework = shared_framework();
  const auto eval = framework.evaluate_strategy(detect::DetectorKind::kKnn, {0, 5, 8});
  EXPECT_EQ(eval.per_victim.size(), 12u);
  ConfusionMatrix recomputed;
  for (const auto& cm : eval.per_victim) recomputed.merge(cm);
  EXPECT_EQ(recomputed.total(), eval.pooled.total());
  EXPECT_EQ(recomputed.tp, eval.pooled.tp);
  EXPECT_GT(eval.pooled.total(), 0u);
  EXPECT_GT(eval.train_benign, 0u);
  EXPECT_GT(eval.train_malicious, 0u);
}

TEST(Framework, ExperimentGridCoversDetectorAndStrategies) {
  auto& framework = shared_framework();
  const auto results =
      framework.run_detector_experiments({detect::DetectorKind::kKnn});
  ASSERT_EQ(results.entries.size(), 4u);  // one per strategy
  for (const Strategy strategy : all_strategies()) {
    const auto& entry = results.entry(detect::DetectorKind::kKnn, strategy);
    EXPECT_GT(entry.pooled.total(), 0u);
  }
  EXPECT_THROW((void)results.entry(detect::DetectorKind::kMadGan, Strategy::kAllVictims),
               common::PreconditionError);
}

}  // namespace
}  // namespace goodones::core
