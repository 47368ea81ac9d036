// End-to-end pipeline tests on a miniature configuration: cohort -> models
// -> attack -> risk profiles -> clustering -> selective training -> metrics.
// Kept deliberately small so the whole file runs in tens of seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <cmath>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "core/cache.hpp"
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
  // Random strategy detail: one record per run.
  EXPECT_EQ(results.random_runs.size(), mini_config().random_runs);
  EXPECT_THROW((void)results.entry(detect::DetectorKind::kMadGan, Strategy::kAllVictims),
               common::PreconditionError);
}

TEST(Cache, ExperimentsRoundTripThroughCsv) {
  ExperimentResults results;
  StrategyEvaluation eval;
  eval.detector = detect::DetectorKind::kOcsvm;
  eval.strategy = Strategy::kLessVulnerable;
  eval.pooled.tp = 10;
  eval.pooled.fp = 2;
  eval.pooled.fn = 3;
  eval.pooled.tn = 85;
  eval.per_victim.resize(12);
  eval.per_victim[4].tp = 10;
  eval.train_benign = 111;
  eval.train_malicious = 22;
  eval.fit_seconds = 1.5;
  eval.score_seconds = 2.5;
  results.entries.push_back(eval);

  StrategyEvaluation run = eval;
  run.strategy = Strategy::kRandomSamples;
  run.run = 3;
  results.random_runs.push_back(run);

  FrameworkConfig config = FrameworkConfig::fast();
  config.seed = 987654321;  // unique cache slot for this test
  save_experiments(results, config, "bgms");
  const auto loaded = load_experiments(config, "bgms");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->entries.size(), 1u);
  const auto& entry = loaded->entries.front();
  EXPECT_EQ(entry.detector, detect::DetectorKind::kOcsvm);
  EXPECT_EQ(entry.strategy, Strategy::kLessVulnerable);
  EXPECT_EQ(entry.pooled.tp, 10u);
  EXPECT_EQ(entry.per_victim[4].tp, 10u);
  EXPECT_EQ(entry.train_benign, 111u);
  EXPECT_DOUBLE_EQ(entry.fit_seconds, 1.5);
  ASSERT_EQ(loaded->random_runs.size(), 1u);
  EXPECT_EQ(loaded->random_runs.front().run, 3u);

  std::filesystem::remove(experiments_cache_path(config, "bgms"));
}

TEST(Cache, MissingFileReturnsNullopt) {
  FrameworkConfig config = FrameworkConfig::fast();
  config.seed = 1122334455;  // never saved
  EXPECT_FALSE(load_experiments(config, "bgms").has_value());
}

/// Saves a one-entry cache whose per-victim rows carry `targets` as their
/// target column, in order, right after the entry's pooled row.
void save_with_victim_targets(const FrameworkConfig& config,
                              const std::vector<std::string>& targets) {
  ExperimentResults results;
  StrategyEvaluation eval;
  eval.pooled.tp = 3;
  eval.per_victim.resize(targets.size());
  results.entries.push_back(eval);
  save_experiments(results, config, "bgms");

  const auto path = experiments_cache_path(config, "bgms");
  const common::CsvTable saved = common::CsvTable::read(path);
  const std::size_t target = saved.column_index("target");
  common::CsvTable edited(saved.header());
  for (std::size_t r = 0; r < saved.num_rows(); ++r) {
    std::vector<std::string> row = saved.rows()[r];
    if (r > 0) row[target] = targets[r - 1];
    edited.add_row(std::move(row));
  }
  edited.write(path);
}

TEST(Cache, VictimRowsMustFollowInOrder) {
  FrameworkConfig config = FrameworkConfig::fast();
  config.seed = 5566778899;  // unique cache slot for this test
  const auto path = experiments_cache_path(config, "bgms");

  save_with_victim_targets(config, {"victim_0", "victim_1"});
  const auto dense = load_experiments(config, "bgms");
  ASSERT_TRUE(dense.has_value());
  EXPECT_EQ(dense->entries.front().per_victim.size(), 2u);

  // An index that is not the next one in sequence fails the whole load,
  // including indices that wrap or that parse to the right number.
  const std::vector<std::vector<std::string>> malformed = {
      {"victim_-1"},
      {"victim_18446744073709551615"},
      {"victim_0", "victim_2"},
      {"victim_0", "victim_01"}};
  for (const auto& targets : malformed) {
    save_with_victim_targets(config, targets);
    EXPECT_FALSE(load_experiments(config, "bgms").has_value()) << targets.back();
  }
  std::filesystem::remove(path);
}

TEST(Cache, PartialGridIsRecomputed) {
  auto& framework = shared_framework();
  const std::string domain = domain_cache_key(framework.domain().spec());
  ExperimentResults partial;
  StrategyEvaluation less;
  less.detector = detect::DetectorKind::kKnn;
  less.strategy = Strategy::kLessVulnerable;
  partial.entries.push_back(less);
  save_experiments(partial, framework.config(), domain);
  ASSERT_TRUE(load_experiments(framework.config(), domain).has_value());

  const auto results = experiments_with_cache(framework, {detect::DetectorKind::kKnn});
  ASSERT_EQ(results.entries.size(), 4u);
  for (const Strategy strategy : all_strategies()) {
    EXPECT_GT(results.entry(detect::DetectorKind::kKnn, strategy).pooled.total(), 0u);
  }
  std::filesystem::remove(experiments_cache_path(framework.config(), domain));
}

}  // namespace
}  // namespace goodones::core
