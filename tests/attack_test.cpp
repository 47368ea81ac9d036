#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "attack/campaign.hpp"
#include "attack/evasion.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/metrics.hpp"
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

// --- the fleet sweep ---------------------------------------------------------
//
// run_campaigns runs every entity's shards in one pool sweep. A shard never
// mixes two models, so each entity's outcomes, and every campaign counter
// total, must equal what separate run_campaign calls produce.

/// A window set whose windows differ row by row: levels across the hypo,
/// normal and hyper bands, both regimes, so searches end after different
/// numbers of probes, some succeed and some windows are skipped.
std::vector<data::Window> varied_windows(std::size_t count, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<data::Window> windows;
  for (std::size_t i = 0; i < count; ++i) {
    const data::Regime regime = rng.uniform(0.0, 1.0) < 0.5 ? data::Regime::kBaseline
                                                              : data::Regime::kActive;
    data::Window w = make_window(rng.uniform(55.0, 210.0), regime);
    for (std::size_t t = 0; t < w.features.rows(); ++t) {
      w.features(t, kCgm) += rng.uniform(-25.0, 25.0);
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

/// Throws from every prediction: an entity whose campaign fails.
class FailingModel final : public predict::Forecaster {
 public:
  explicit FailingModel(std::string what) : what_(std::move(what)) {}
  double predict(const nn::Matrix&) const override { throw std::runtime_error(what_); }

 private:
  std::string what_;
};

struct CounterTotals {
  std::uint64_t probes, successes, items_done, shards_done;
  bool operator==(const CounterTotals&) const = default;
};

CounterTotals campaign_counters() {
  const core::CounterRegistry& c = core::counters();
  return {c.value("campaign.probes"), c.value("campaign.successes"),
          c.value("campaign.items_done"), c.value("campaign.shards_done")};
}

void expect_same_outcomes(const std::vector<WindowOutcome>& fleet,
                          const std::vector<WindowOutcome>& solo, const std::string& what) {
  ASSERT_EQ(fleet.size(), solo.size()) << what;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const AttackResult& a = fleet[i].attack;
    const AttackResult& b = solo[i].attack;
    EXPECT_EQ(a.probes, b.probes) << what << " window " << i;
    EXPECT_EQ(a.edits, b.edits) << what << " window " << i;
    EXPECT_EQ(a.success, b.success) << what << " window " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.benign_prediction),
              std::bit_cast<std::uint64_t>(b.benign_prediction))
        << what << " window " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.adversarial_prediction),
              std::bit_cast<std::uint64_t>(b.adversarial_prediction))
        << what << " window " << i;
    ASSERT_EQ(a.adversarial_features.rows(), b.adversarial_features.rows());
    ASSERT_EQ(a.adversarial_features.cols(), b.adversarial_features.cols());
    for (std::size_t k = 0; k < a.adversarial_features.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.adversarial_features.data()[k]),
                std::bit_cast<std::uint64_t>(b.adversarial_features.data()[k]))
          << what << " window " << i << " element " << k;
    }
    EXPECT_EQ(fleet[i].true_state, solo[i].true_state) << what << " window " << i;
    EXPECT_EQ(fleet[i].adversarial_predicted_state, solo[i].adversarial_predicted_state)
        << what << " window " << i;
  }
}

TEST(CampaignFleet, EachEntityMatchesItsOwnCampaignAndCountersAgree) {
  // Four models of different pliability over window sets of different
  // sizes (auto shard sizes 3, 2, 1 and 1).
  const LinearCgmModel pliable(1.0);
  const LinearCgmModel partial(0.8);
  const LinearCgmModel damped(0.4);
  const LinearCgmModel steep(1.6);
  const std::vector<const predict::Forecaster*> models{&pliable, &partial, &damped, &steep};
  std::vector<std::vector<data::Window>> sets{varied_windows(170, 1), varied_windows(90, 2),
                                              varied_windows(40, 3), varied_windows(7, 4)};
  std::vector<const std::vector<data::Window>*> set_ptrs;
  for (const auto& set : sets) set_ptrs.push_back(&set);

  std::size_t successes = 0;
  std::size_t failures = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t shard_size : {std::size_t{0}, std::size_t{1}}) {
      const std::string what = "threads " + std::to_string(threads) + " shard_size " +
                               std::to_string(shard_size);
      common::ThreadPool pool(threads);
      CampaignConfig config;
      config.window_step = 1;
      config.shard_size = shard_size;

      core::counters().reset();
      const auto fleet = run_campaigns(models, set_ptrs, config, pool);
      const CounterTotals fleet_counters = campaign_counters();

      core::counters().reset();
      ASSERT_EQ(fleet.size(), models.size()) << what;
      for (std::size_t e = 0; e < models.size(); ++e) {
        const auto solo = run_campaign(*models[e], sets[e], config, pool);
        expect_same_outcomes(fleet[e], solo, what + " entity " + std::to_string(e));
        for (const WindowOutcome& o : solo) (o.attack.success ? successes : failures) += 1;
      }
      EXPECT_EQ(fleet_counters, campaign_counters()) << what;
      EXPECT_GT(fleet_counters.shards_done, models.size()) << what;
    }
  }
  // The sets exercise both outcomes, not one.
  EXPECT_GT(successes, 0u);
  EXPECT_GT(failures, 0u);
}

TEST(CampaignFleet, FailingEntityLetsEveryOtherShardRunAndRethrowsTheFirstFailure) {
  const LinearCgmModel pliable(1.0);
  const FailingModel first("entity 1 failed");
  const LinearCgmModel damped(0.4);
  const FailingModel second("entity 3 failed");
  const std::vector<const predict::Forecaster*> models{&pliable, &first, &damped, &second};
  std::vector<std::vector<data::Window>> sets{varied_windows(60, 5), varied_windows(50, 6),
                                              varied_windows(40, 7), varied_windows(30, 8)};
  std::vector<const std::vector<data::Window>*> set_ptrs;
  for (const auto& set : sets) set_ptrs.push_back(&set);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    common::ThreadPool pool(threads);
    CampaignConfig config;
    config.window_step = 1;
    config.shard_size = 4;

    // What the two healthy entities' campaigns count on their own.
    core::counters().reset();
    (void)run_campaign(pliable, sets[0], config, pool);
    (void)run_campaign(damped, sets[2], config, pool);
    const CounterTotals healthy = campaign_counters();

    core::counters().reset();
    try {
      (void)run_campaigns(models, set_ptrs, config, pool);
      FAIL() << "expected the failing entities' exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "entity 1 failed") << "threads " << threads;
    }
    // Every shard of the healthy entities ran to completion.
    EXPECT_EQ(core::counters().value("campaign.items_done"), healthy.items_done);
    EXPECT_EQ(core::counters().value("campaign.shards_done"), healthy.shards_done);
  }
}

}  // namespace
}  // namespace goodones::attack
