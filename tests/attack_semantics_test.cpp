// Tests for the attack semantics introduced by the reproduction: the
// overdose success threshold, treatment-relevant induced states, stealth
// escalation, and the deterministic per-window candidate jitter.
#include <gtest/gtest.h>

#include <set>

#include "attack/campaign.hpp"
#include "attack/evasion.hpp"
#include "common/thread_pool.hpp"
#include "domains/bgms/cohort.hpp"
#include "predict/forecaster.hpp"

namespace goodones::attack {
namespace {

using bgms::kCgm;

class MeanCgmModel final : public predict::Forecaster {
 public:
  explicit MeanCgmModel(double gain = 1.0) : gain_(gain) {}
  double predict(const nn::Matrix& x) const override {
    double sum = 0.0;
    for (std::size_t t = 0; t < x.rows(); ++t) sum += x(t, kCgm);
    return gain_ * sum / static_cast<double>(x.rows());
  }

 private:
  double gain_;
};

data::Window make_window(double level, data::Regime regime = data::Regime::kBaseline) {
  data::Window w;
  w.features = nn::Matrix(12, bgms::kNumChannels);
  for (std::size_t t = 0; t < 12; ++t) w.features(t, kCgm) = level;
  w.target_value = level;
  w.regime = regime;
  return w;
}

TEST(AttackConfig, SuccessThresholdNeverBelowDiagnostic) {
  AttackConfig config;
  config.harm_threshold = 100.0;  // below both diagnostic thresholds
  EXPECT_DOUBLE_EQ(config.success_threshold(data::Regime::kBaseline), 125.0);
  EXPECT_DOUBLE_EQ(config.success_threshold(data::Regime::kActive), 180.0);
  config.harm_threshold = 370.0;
  EXPECT_DOUBLE_EQ(config.success_threshold(data::Regime::kBaseline), 370.0);
}

TEST(AttackConfig, InducedStateFollowsOverdoseLevel) {
  const AttackConfig config;  // overdose 370
  using data::Regime;
  using data::StateLabel;
  EXPECT_EQ(config.induced_state(400.0, Regime::kBaseline), StateLabel::kHigh);
  // Elevated but sub-critical: treatment-wise still "Normal".
  EXPECT_EQ(config.induced_state(300.0, Regime::kBaseline), StateLabel::kNormal);
  EXPECT_EQ(config.induced_state(60.0, Regime::kBaseline), StateLabel::kLow);
  EXPECT_EQ(config.induced_state(100.0, Regime::kBaseline), StateLabel::kNormal);
}

TEST(AttackConfig, BoxMinPerScenario) {
  const AttackConfig config;
  EXPECT_DOUBLE_EQ(config.box_min(data::Regime::kBaseline), 125.0);
  EXPECT_DOUBLE_EQ(config.box_min(data::Regime::kActive), 180.0);
}

TEST(Stealth, AggressiveAttackerReachesHigherPredictions) {
  const MeanCgmModel model;
  AttackConfig aggressive;
  aggressive.stealth_fraction = 0.0;
  aggressive.harm_threshold = 10000.0;  // unreachable: both use full budget
  AttackConfig stealthy = aggressive;
  stealthy.stealth_fraction = 0.6;

  const auto window = make_window(100.0);
  const auto strong = EvasionAttack{aggressive}.attack_window(model, window);
  const auto subtle = EvasionAttack{stealthy}.attack_window(model, window);
  EXPECT_GE(strong.adversarial_prediction, subtle.adversarial_prediction);
}

TEST(Stealth, StealthyAttackerUsesSmallerValuesWhenGoalReachable) {
  const MeanCgmModel model(2.0);  // strong gain: one edit can cross
  AttackConfig config;
  config.harm_threshold = 250.0;
  config.stealth_fraction = 0.6;
  const auto result = EvasionAttack{config}.attack_window(model, make_window(110.0));
  ASSERT_TRUE(result.success);
  // The chosen manipulated values must not all be the box maximum.
  double max_used = 0.0;
  for (std::size_t t = 0; t < 12; ++t) {
    const double v = result.adversarial_features(t, kCgm);
    if (v != 110.0) max_used = std::max(max_used, v);
  }
  EXPECT_LT(max_used, 499.0);
}

TEST(Jitter, ManipulatedValuesVaryAcrossWindows) {
  const MeanCgmModel model(2.0);
  AttackConfig config;
  config.harm_threshold = 250.0;
  const EvasionAttack attack{config};
  std::set<double> used_values;
  for (int i = 0; i < 12; ++i) {
    const auto window = make_window(100.0 + i * 1.7);
    const auto result = attack.attack_window(model, window);
    for (std::size_t t = 0; t < 12; ++t) {
      const double v = result.adversarial_features(t, kCgm);
      if (v != window.features(t, kCgm)) used_values.insert(v);
    }
  }
  // Without jitter the grid would allow at most value_candidates distinct
  // values; with per-window jitter nearly every window contributes new ones.
  EXPECT_GT(used_values.size(), 8u);
}

TEST(Jitter, DeterministicPerWindow) {
  const MeanCgmModel model(2.0);
  AttackConfig config;
  config.harm_threshold = 250.0;
  const EvasionAttack attack{config};
  const auto window = make_window(104.0);
  const auto a = attack.attack_window(model, window);
  const auto b = attack.attack_window(model, window);
  for (std::size_t t = 0; t < 12; ++t) {
    ASSERT_DOUBLE_EQ(a.adversarial_features(t, kCgm),
                     b.adversarial_features(t, kCgm));
  }
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.edits, b.edits);
}

TEST(Jitter, BoxMaximumAlwaysAvailable) {
  // The aggressive attacker must be able to reach the box max regardless of
  // jitter: a weak-gain model forces full escalation, and the final values
  // must include 499 exactly.
  const MeanCgmModel model(0.9);
  AttackConfig config;
  config.stealth_fraction = 0.0;
  config.harm_threshold = 10000.0;
  config.max_edits = 12;
  const auto result = EvasionAttack{config}.attack_window(model, make_window(100.0));
  bool found_max = false;
  for (std::size_t t = 0; t < 12; ++t) {
    found_max = found_max || result.adversarial_features(t, kCgm) == 499.0;
  }
  EXPECT_TRUE(found_max);
}

TEST(Campaign, BenignPredictionAlreadyPastHarmBarCountsAsSuccess) {
  const MeanCgmModel model(4.0);  // benign 100 -> prediction 400 > 370
  std::vector<data::Window> windows{make_window(100.0)};
  CampaignConfig config;
  config.window_step = 1;
  common::ThreadPool pool(2);
  const auto outcomes = run_campaign(model, windows, config, pool);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].attack.success);
  EXPECT_EQ(outcomes[0].attack.edits, 0u);
}

TEST(Campaign, InducedStateRecordedWithOverdoseSemantics) {
  const MeanCgmModel model(1.2);
  std::vector<data::Window> windows{make_window(100.0)};
  CampaignConfig config;
  config.window_step = 1;
  config.attack.max_edits = 2;  // cannot reach 370 with mean model: ceiling ~1.2*233
  common::ThreadPool pool(2);
  const auto outcomes = run_campaign(model, windows, config, pool);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].attack.success);
  // Elevated but sub-critical: induced state stays Normal -> severity 1.
  EXPECT_EQ(outcomes[0].adversarial_predicted_state, data::StateLabel::kNormal);
}

class StealthFractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(StealthFractionSweep, SuccessIsMonotoneInBudgetAndDeterministic) {
  const MeanCgmModel model(1.6);
  AttackConfig config;
  config.stealth_fraction = GetParam();
  config.harm_threshold = 300.0;
  config.max_edits = 12;
  const EvasionAttack attack{config};
  const auto window = make_window(105.0);
  const auto result = attack.attack_window(model, window);
  EXPECT_TRUE(result.success);
  EXPECT_GE(result.adversarial_prediction, result.benign_prediction);
  const auto again = attack.attack_window(model, window);
  EXPECT_DOUBLE_EQ(result.adversarial_prediction, again.adversarial_prediction);
}

INSTANTIATE_TEST_SUITE_P(Fractions, StealthFractionSweep,
                         ::testing::Values(0.0, 0.3, 0.6, 0.9));

}  // namespace
}  // namespace goodones::attack
