#include <gtest/gtest.h>

#include <cmath>

#include "attack/campaign.hpp"
#include "attack/evasion.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "data/timeseries.hpp"
#include "data/window.hpp"
#include "domains/bgms/cohort.hpp"
#include "domains/bgms/glucose_state.hpp"
#include "predict/forecaster.hpp"

namespace goodones::attack {
namespace {

// The generic attack is exercised here with its default (BGMS-calibrated)
// semantics; channel constants come from the BGMS layout.
using bgms::kBasal;
using bgms::kBolus;
using bgms::kCarbs;
using bgms::kCgm;

/// Analytic stand-in for the DNN: predicts a weighted mean of the CGM
/// channel with recency weighting. Lets attack tests assert exact behavior
/// without training a network.
class LinearCgmModel final : public predict::Forecaster {
 public:
  explicit LinearCgmModel(double damping = 1.0) : damping_(damping) {}

  double predict(const nn::Matrix& x) const override {
    double weight_sum = 0.0;
    double value = 0.0;
    for (std::size_t t = 0; t < x.rows(); ++t) {
      const double w = static_cast<double>(t + 1);
      value += w * x(t, kCgm);
      weight_sum += w;
    }
    return damping_ * value / weight_sum;
  }

 private:
  double damping_;
};

data::Window make_window(double cgm_level, data::Regime regime,
                         std::size_t steps = 12) {
  data::Window w;
  w.features = nn::Matrix(steps, bgms::kNumChannels);
  for (std::size_t t = 0; t < steps; ++t) {
    w.features(t, kCgm) = cgm_level;
    w.features(t, kBasal) = 0.9;
  }
  w.target_value = cgm_level;
  w.regime = regime;
  return w;
}

TEST(Evasion, SucceedsOnPliableModelFasting) {
  const LinearCgmModel model;
  AttackConfig config;
  config.max_edits = 12;  // unconstrained budget: the pliable model must fall
  const EvasionAttack attack{config};
  const auto result = attack.attack_window(model, make_window(100.0, data::Regime::kBaseline));
  EXPECT_TRUE(result.success);
  EXPECT_GT(result.adversarial_prediction, config.harm_threshold);
  EXPECT_GT(result.edits, 0u);
  EXPECT_NEAR(result.benign_prediction, 100.0, 1e-9);
}

TEST(Evasion, RespectsFastingConstraintBox) {
  const LinearCgmModel model;
  const EvasionAttack attack{AttackConfig{}};
  const auto window = make_window(95.0, data::Regime::kBaseline);
  const auto result = attack.attack_window(model, window);
  for (std::size_t t = 0; t < window.features.rows(); ++t) {
    const double original = window.features(t, kCgm);
    const double manipulated = result.adversarial_features(t, kCgm);
    if (manipulated != original) {
      EXPECT_GE(manipulated, 125.0);
      EXPECT_LE(manipulated, 499.0);
    }
  }
}

TEST(Evasion, RespectsPostprandialConstraintBox) {
  const LinearCgmModel model;
  const EvasionAttack attack{AttackConfig{}};
  const auto window = make_window(140.0, data::Regime::kActive);
  const auto result = attack.attack_window(model, window);
  for (std::size_t t = 0; t < window.features.rows(); ++t) {
    const double original = window.features(t, kCgm);
    const double manipulated = result.adversarial_features(t, kCgm);
    if (manipulated != original) {
      EXPECT_GE(manipulated, 180.0);
      EXPECT_LE(manipulated, 499.0);
    }
  }
  if (result.success) {
    EXPECT_GT(result.adversarial_prediction, 180.0);
  }
}

TEST(Evasion, OnlyTouchesCgmChannel) {
  const LinearCgmModel model;
  const EvasionAttack attack{AttackConfig{}};
  const auto window = make_window(100.0, data::Regime::kBaseline);
  const auto result = attack.attack_window(model, window);
  for (std::size_t t = 0; t < window.features.rows(); ++t) {
    for (const std::size_t c : {kBasal, kBolus, kCarbs}) {
      ASSERT_DOUBLE_EQ(result.adversarial_features(t, c), window.features(t, c));
    }
  }
}

TEST(Evasion, FailsAgainstStronglyDampedModel) {
  // Damping 0.2: even all-499 inputs predict < 100 -- far below the harm bar.
  const LinearCgmModel model(0.2);
  const EvasionAttack attack{AttackConfig{}};
  const auto result = attack.attack_window(model, make_window(100.0, data::Regime::kBaseline));
  EXPECT_FALSE(result.success);
  EXPECT_LT(result.adversarial_prediction, 125.0);
}

TEST(Evasion, StopsEarlyOnceSuccessful) {
  const LinearCgmModel model;
  AttackConfig config;
  config.max_edits = 12;
  config.harm_threshold = 200.0;  // low harm bar: crossed within two edits
  const EvasionAttack attack{config};
  const auto result = attack.attack_window(model, make_window(120.0, data::Regime::kBaseline));
  ASSERT_TRUE(result.success);
  EXPECT_LE(result.edits, 2u);
}

TEST(Evasion, EditBudgetIsRespected) {
  const LinearCgmModel model(0.2);  // never succeeds -> exhausts budget
  AttackConfig config;
  config.max_edits = 3;
  const EvasionAttack attack{config};
  const auto window = make_window(100.0, data::Regime::kBaseline);
  const auto result = attack.attack_window(model, window);
  EXPECT_LE(result.edits, 3u);
  std::size_t changed = 0;
  for (std::size_t t = 0; t < window.features.rows(); ++t) {
    changed += result.adversarial_features(t, kCgm) != window.features(t, kCgm);
  }
  EXPECT_LE(changed, 3u);
}

TEST(Evasion, BreaksThePliableModelFromALowerStart) {
  const LinearCgmModel model;
  AttackConfig config;
  config.max_edits = 12;
  const EvasionAttack attack{config};
  const auto result = attack.attack_window(model, make_window(90.0, data::Regime::kBaseline));
  EXPECT_TRUE(result.success);
  EXPECT_GT(result.adversarial_prediction, config.harm_threshold);
}

TEST(Evasion, AdversarialPredictionNeverBelowBenign) {
  const LinearCgmModel model(0.5);
  const EvasionAttack attack{AttackConfig{}};
  const auto result = attack.attack_window(model, make_window(80.0, data::Regime::kBaseline));
  EXPECT_GE(result.adversarial_prediction, result.benign_prediction - 1e-9);
}

TEST(Evasion, EditsTheMostRecentTimestepsFirst) {
  // The weakly damped model never succeeds, so the search spends its whole
  // budget; every edit it keeps sits in the last max_edits rows.
  const LinearCgmModel model(0.5);
  AttackConfig config;
  config.max_edits = 3;
  const EvasionAttack attack{config};
  const auto window = make_window(80.0, data::Regime::kBaseline);
  const auto result = attack.attack_window(model, window);
  ASSERT_FALSE(result.success);
  EXPECT_EQ(result.edits, 3u);
  const std::size_t rows = window.features.rows();
  for (std::size_t t = 0; t < rows; ++t) {
    const bool edited = result.adversarial_features(t, kCgm) != window.features(t, kCgm);
    EXPECT_EQ(edited, t >= rows - 3) << "row " << t;
  }
}

TEST(Evasion, RejectsDegenerateConfig) {
  AttackConfig config;
  config.value_candidates = 1;
  EXPECT_THROW(EvasionAttack{config}, common::PreconditionError);
  config = AttackConfig{};
  config.max_edits = 0;
  EXPECT_THROW(EvasionAttack{config}, common::PreconditionError);
}

TEST(Campaign, AttacksOnlyNonHyperWindows) {
  const LinearCgmModel model;
  std::vector<data::Window> windows;
  windows.push_back(make_window(100.0, data::Regime::kBaseline));  // normal
  windows.push_back(make_window(60.0, data::Regime::kBaseline));   // hypo
  windows.push_back(make_window(200.0, data::Regime::kBaseline));  // hyper: skipped
  CampaignConfig config;
  config.window_step = 1;
  config.attack.max_edits = 12;
  common::ThreadPool pool(2);
  const auto outcomes = run_campaign(model, windows, config, pool);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].true_state, data::StateLabel::kNormal);
  EXPECT_EQ(outcomes[1].true_state, data::StateLabel::kLow);
}

TEST(Campaign, WindowStepSubsamples) {
  const LinearCgmModel model;
  std::vector<data::Window> windows;
  for (int i = 0; i < 10; ++i) windows.push_back(make_window(100.0, data::Regime::kBaseline));
  CampaignConfig config;
  config.window_step = 3;
  common::ThreadPool pool(2);
  EXPECT_EQ(run_campaign(model, windows, config, pool).size(), 4u);  // 0,3,6,9
}

TEST(Campaign, SummaryBucketsByOriginAndContext) {
  const LinearCgmModel model;
  std::vector<data::Window> windows;
  windows.push_back(make_window(100.0, data::Regime::kBaseline));      // normal fasting
  windows.push_back(make_window(100.0, data::Regime::kActive)); // normal pp
  windows.push_back(make_window(60.0, data::Regime::kBaseline));       // hypo fasting
  CampaignConfig config;
  config.window_step = 1;
  config.attack.max_edits = 12;
  common::ThreadPool pool(2);
  const auto rates = summarize(run_campaign(model, windows, config, pool));
  EXPECT_EQ(rates.normal_baseline_attempts, 1u);
  EXPECT_EQ(rates.normal_active_attempts, 1u);
  EXPECT_EQ(rates.low_baseline_attempts, 1u);
  EXPECT_EQ(rates.low_active_attempts, 0u);
  // The pliable model is always broken.
  EXPECT_DOUBLE_EQ(rates.normal_baseline_rate(), 1.0);
  EXPECT_DOUBLE_EQ(rates.low_baseline_rate(), 1.0);
  EXPECT_DOUBLE_EQ(rates.overall_rate(), 1.0);
}

TEST(Campaign, RatesZeroWhenNoAttempts) {
  const SuccessRates empty;
  EXPECT_DOUBLE_EQ(empty.normal_baseline_rate(), 0.0);
  EXPECT_DOUBLE_EQ(empty.overall_rate(), 0.0);
}

}  // namespace
}  // namespace goodones::attack
