// Tests for the risk extensions: configurable severity schedules (the
// paper's planned sensitivity analysis) and the online risk profiler
// (the paper's Appendix-D adaptive reassessment).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "risk/online.hpp"
#include "risk/severity.hpp"
#include "risk/schedule.hpp"

namespace goodones::risk {
namespace {

using StateLabel = data::StateLabel;

attack::WindowOutcome make_outcome(double benign_pred, double adv_pred,
                                   StateLabel benign_state, StateLabel adv_state) {
  attack::WindowOutcome outcome;
  outcome.attack.benign_prediction = benign_pred;
  outcome.attack.adversarial_prediction = adv_pred;
  outcome.benign_predicted_state = benign_state;
  outcome.adversarial_predicted_state = adv_state;
  return outcome;
}

TEST(SeveritySchedule, PaperDefaultMatchesTableI) {
  const auto schedule = SeveritySchedule::paper_default();
  EXPECT_DOUBLE_EQ(schedule.coefficient(StateLabel::kLow, StateLabel::kHigh), 64.0);
  EXPECT_DOUBLE_EQ(schedule.coefficient(StateLabel::kNormal, StateLabel::kHigh), 32.0);
  EXPECT_DOUBLE_EQ(schedule.coefficient(StateLabel::kLow, StateLabel::kNormal), 16.0);
  EXPECT_DOUBLE_EQ(schedule.coefficient(StateLabel::kHigh, StateLabel::kLow), 8.0);
  EXPECT_DOUBLE_EQ(schedule.coefficient(StateLabel::kHigh, StateLabel::kNormal), 4.0);
  EXPECT_DOUBLE_EQ(schedule.coefficient(StateLabel::kNormal, StateLabel::kLow), 2.0);
}

TEST(SeveritySchedule, PaperDefaultAgreesWithSeverityTable) {
  const auto schedule = SeveritySchedule::paper_default();
  for (const auto& entry : severity_table()) {
    EXPECT_DOUBLE_EQ(schedule.coefficient(entry.benign, entry.adversarial), entry.coefficient);
  }
  // Table I leaves the identity transitions out; they weigh 1.
  for (const auto state : {StateLabel::kLow, StateLabel::kNormal, StateLabel::kHigh}) {
    EXPECT_DOUBLE_EQ(schedule.coefficient(state, state), 1.0);
  }
}

TEST(SeveritySchedule, LinearIsOrderPreserving) {
  const auto linear = SeveritySchedule::linear();
  EXPECT_DOUBLE_EQ(linear.coefficient(StateLabel::kLow, StateLabel::kHigh), 6.0);
  EXPECT_DOUBLE_EQ(linear.coefficient(StateLabel::kNormal, StateLabel::kLow), 1.0);
  // Same severity ordering as the paper's table, different magnitudes.
  const auto& table = severity_table();
  for (std::size_t i = 0; i + 1 < table.size(); ++i) {
    EXPECT_GT(linear.coefficient(table[i].benign, table[i].adversarial),
              linear.coefficient(table[i + 1].benign, table[i + 1].adversarial));
  }
}

TEST(SeveritySchedule, UniformWeighsEverythingEqually) {
  const auto uniform = SeveritySchedule::uniform();
  for (const auto benign :
       {StateLabel::kLow, StateLabel::kNormal, StateLabel::kHigh}) {
    for (const auto adv :
         {StateLabel::kLow, StateLabel::kNormal, StateLabel::kHigh}) {
      EXPECT_DOUBLE_EQ(uniform.coefficient(benign, adv), 1.0);
    }
  }
}

TEST(SeveritySchedule, ExponentialBaseThree) {
  const auto schedule = SeveritySchedule::exponential(3.0);
  EXPECT_DOUBLE_EQ(schedule.coefficient(StateLabel::kLow, StateLabel::kHigh), 729.0);
  EXPECT_DOUBLE_EQ(schedule.coefficient(StateLabel::kNormal, StateLabel::kLow), 3.0);
  EXPECT_THROW((void)SeveritySchedule::exponential(1.0), common::PreconditionError);
}

TEST(SeveritySchedule, SetOverridesSingleCell) {
  auto schedule = SeveritySchedule::paper_default();
  schedule.set(StateLabel::kNormal, StateLabel::kHigh, 100.0);
  EXPECT_DOUBLE_EQ(schedule.coefficient(StateLabel::kNormal, StateLabel::kHigh), 100.0);
  EXPECT_DOUBLE_EQ(schedule.coefficient(StateLabel::kLow, StateLabel::kHigh), 64.0);
}

TEST(SeveritySchedule, RiskUnderScheduleMatchesDefinition) {
  const auto outcome =
      make_outcome(100.0, 400.0, StateLabel::kNormal, StateLabel::kHigh);
  EXPECT_DOUBLE_EQ(instantaneous_risk(outcome, SeveritySchedule::paper_default()),
                   32.0 * 300.0 * 300.0);
  EXPECT_DOUBLE_EQ(instantaneous_risk(outcome, SeveritySchedule::uniform()),
                   300.0 * 300.0);
}

TEST(SeveritySchedule, ProfileUnderScheduleScalesValues) {
  std::vector<attack::WindowOutcome> outcomes{
      make_outcome(100.0, 400.0, StateLabel::kNormal, StateLabel::kHigh)};
  const auto paper = build_profile("A_0", outcomes, SeveritySchedule::paper_default());
  const auto uniform = build_profile("A_0", outcomes, SeveritySchedule::uniform());
  ASSERT_EQ(paper.values.size(), 1u);
  EXPECT_DOUBLE_EQ(paper.values[0], 32.0 * uniform.values[0]);
}

std::vector<std::string> two_victims() { return {"A_0", "A_1"}; }

TEST(OnlineProfiler, TracksLevelsAndBatches) {
  OnlineRiskProfiler profiler(two_victims(), {});
  EXPECT_EQ(profiler.num_victims(), 2u);
  EXPECT_EQ(profiler.batches(0), 0u);

  profiler.observe(0, {make_outcome(100.0, 105.0, StateLabel::kNormal,
                                    StateLabel::kNormal)});
  EXPECT_EQ(profiler.batches(0), 1u);
  EXPECT_NEAR(profiler.level(0), std::log1p(25.0), 1e-12);
}

TEST(OnlineProfiler, EmptyBatchIgnored) {
  OnlineRiskProfiler profiler(two_victims(), {});
  profiler.observe(0, {});
  EXPECT_EQ(profiler.batches(0), 0u);
}

TEST(OnlineProfiler, PartitionSeparatesHighAndLowRisk) {
  OnlineRiskProfiler profiler(two_victims(), {});
  // Victim 0: failed attacks, tiny deviations. Victim 1: severe hits.
  profiler.observe(0, {make_outcome(100.0, 104.0, StateLabel::kNormal,
                                    StateLabel::kNormal)});
  profiler.observe(1, {make_outcome(100.0, 430.0, StateLabel::kNormal,
                                    StateLabel::kHigh)});
  const auto& partition = profiler.reassess();
  ASSERT_EQ(partition.less_vulnerable.size(), 1u);
  ASSERT_EQ(partition.more_vulnerable.size(), 1u);
  EXPECT_EQ(partition.less_vulnerable[0], 0u);
  EXPECT_EQ(partition.more_vulnerable[0], 1u);
}

TEST(OnlineProfiler, AdaptsWhenAVictimRecovers) {
  OnlineProfilerConfig config;
  config.decay = 0.5;  // fast adaptation
  OnlineRiskProfiler profiler(two_victims(), config);
  const auto severe =
      make_outcome(100.0, 430.0, StateLabel::kNormal, StateLabel::kHigh);
  const auto mild =
      make_outcome(100.0, 103.0, StateLabel::kNormal, StateLabel::kNormal);

  profiler.observe(0, {severe});
  profiler.observe(1, {mild});
  profiler.reassess();
  EXPECT_EQ(profiler.partition().more_vulnerable[0], 0u);

  // Victim 0 recovers: repeated mild batches pull its level down.
  for (int i = 0; i < 8; ++i) {
    profiler.observe(0, {mild});
    profiler.observe(1, {mild});
  }
  // Victim 1 deteriorates.
  for (int i = 0; i < 4; ++i) profiler.observe(1, {severe});
  profiler.reassess();
  ASSERT_EQ(profiler.partition().more_vulnerable.size(), 1u);
  EXPECT_EQ(profiler.partition().more_vulnerable[0], 1u);  // roles swapped
}

TEST(OnlineProfiler, HysteresisPreventsBoundaryFlapping) {
  OnlineProfilerConfig config;
  config.decay = 0.5;
  config.hysteresis = 0.3;
  std::vector<std::string> victims = {"A_0", "A_1", "A_2"};
  OnlineRiskProfiler profiler(victims, config);
  const auto low =
      make_outcome(100.0, 102.0, StateLabel::kNormal, StateLabel::kNormal);
  const auto high =
      make_outcome(100.0, 430.0, StateLabel::kNormal, StateLabel::kHigh);
  const auto middling =
      make_outcome(100.0, 180.0, StateLabel::kNormal, StateLabel::kNormal);

  profiler.observe(0, {low});
  profiler.observe(1, {middling});
  profiler.observe(2, {high});
  profiler.reassess();
  const bool victim1_was_less =
      std::find(profiler.partition().less_vulnerable.begin(),
                profiler.partition().less_vulnerable.end(),
                1u) != profiler.partition().less_vulnerable.end();

  // A tiny perturbation of the middling victim must not flip its side.
  profiler.observe(0, {low});
  profiler.observe(1, {middling});
  profiler.observe(2, {high});
  profiler.reassess();
  const bool victim1_still_less =
      std::find(profiler.partition().less_vulnerable.begin(),
                profiler.partition().less_vulnerable.end(),
                1u) != profiler.partition().less_vulnerable.end();
  EXPECT_EQ(victim1_was_less, victim1_still_less);
}

TEST(OnlineProfiler, ReassessRequiresObservations) {
  OnlineRiskProfiler profiler(two_victims(), {});
  profiler.observe(0, {make_outcome(100.0, 105.0, StateLabel::kNormal,
                                    StateLabel::kNormal)});
  EXPECT_THROW((void)profiler.reassess(), common::PreconditionError);
}

TEST(OnlineProfiler, RejectsBadConfig) {
  OnlineProfilerConfig config;
  config.decay = 0.0;
  EXPECT_THROW(OnlineRiskProfiler(two_victims(), config), common::PreconditionError);
  config = {};
  config.hysteresis = 1.0;
  EXPECT_THROW(OnlineRiskProfiler(two_victims(), config), common::PreconditionError);
  EXPECT_THROW(OnlineRiskProfiler({}, {}), common::PreconditionError);
}

TEST(OnlineProfiler, ObserveRisksMatchesObserveOnEquivalentEvidence) {
  // observe_risks (the serving-time entry point) must fold a batch exactly
  // like observe does for campaign outcomes with the same Eq.-1 risks.
  OnlineRiskProfiler from_outcomes(two_victims(), {});
  OnlineRiskProfiler from_risks(two_victims(), {});
  const auto outcome =
      make_outcome(100.0, 430.0, StateLabel::kNormal, StateLabel::kHigh);
  from_outcomes.observe(0, {outcome, outcome});
  const double risk = instantaneous_risk(outcome, SeveritySchedule::paper_default());
  from_risks.observe_risks(0, std::vector<double>{risk, risk});
  EXPECT_EQ(from_risks.level(0), from_outcomes.level(0));
  EXPECT_EQ(from_risks.batches(0), from_outcomes.batches(0));
  EXPECT_THROW(from_risks.observe_risks(0, std::vector<double>{-1.0}),
               common::PreconditionError);
}

TEST(OnlineProfiler, EmptyRiskBatchIgnored) {
  OnlineRiskProfiler profiler(two_victims(), {});
  profiler.observe_risks(0, std::vector<double>{});
  EXPECT_EQ(profiler.batches(0), 0u);
  EXPECT_EQ(profiler.level(0), 0.0);
}

TEST(OnlineProfiler, DecayOneIsCumulativeMeanOfBatchMeans) {
  OnlineProfilerConfig config;
  config.decay = 1.0;  // "never forget" must mean cumulative mean, not freeze
  OnlineRiskProfiler profiler(two_victims(), config);
  const std::vector<double> batch_risks = {3.0, 8.0, 1.0, 20.0, 5.0};
  double mean_of_means = 0.0;
  for (std::size_t i = 0; i < batch_risks.size(); ++i) {
    profiler.observe_risks(0, std::span<const double>(&batch_risks[i], 1));
    mean_of_means += std::log1p(batch_risks[i]);
  }
  mean_of_means /= static_cast<double>(batch_risks.size());
  EXPECT_NEAR(profiler.level(0), mean_of_means, 1e-12);
  EXPECT_EQ(profiler.batches(0), batch_risks.size());
}

/// Drives victim 2 of a 5-victim profiler so its level alternates between
/// 4.8 and 5.2 (log1p space) while the others stay pinned at 1.0 / 1.2 /
/// 9.0 / 9.2; returns the sequence of sides victim 2 landed on. This
/// geometry makes the max-gap SPLIT POINT itself flip with the oscillation
/// (the larger gap is below victim 2 at 5.2, above it at 4.8), so without
/// hysteresis the boundary victim changes cluster on every single batch.
std::vector<bool> boundary_victim_sides(double hysteresis, int rounds) {
  OnlineProfilerConfig config;
  config.decay = 0.5;  // level' = (old + batch_mean) / 2: exact control
  config.hysteresis = hysteresis;
  OnlineRiskProfiler profiler({"v0", "v1", "mid", "v3", "v4"}, config);
  const auto risk_for_level = [](double level) {
    return std::vector<double>{std::expm1(level)};  // first batch sets level
  };
  profiler.observe_risks(0, risk_for_level(1.0));
  profiler.observe_risks(1, risk_for_level(1.2));
  profiler.observe_risks(2, risk_for_level(5.2));
  profiler.observe_risks(3, risk_for_level(9.0));
  profiler.observe_risks(4, risk_for_level(9.2));

  std::vector<bool> sides;
  profiler.reassess();
  const auto record_side = [&] {
    sides.push_back(std::find(profiler.partition().less_vulnerable.begin(),
                              profiler.partition().less_vulnerable.end(),
                              2u) != profiler.partition().less_vulnerable.end());
  };
  record_side();
  for (int round = 0; round < rounds; ++round) {
    // With decay 0.5, a batch mean of (2*target - old) moves the level to
    // target: oscillate 5.2 -> 4.8 -> 5.2 -> ...
    const double target = round % 2 == 0 ? 4.8 : 5.2;
    const double old_level = profiler.level(2);
    profiler.observe_risks(2, risk_for_level(2.0 * target - old_level));
    profiler.reassess();
    record_side();
  }
  return sides;
}

TEST(OnlineProfiler, HysteresisDoesNotOscillateUnderAlternatingBatches) {
  // With a wide dead zone the boundary victim must keep one side across
  // every alternating batch...
  const auto stable = boundary_victim_sides(/*hysteresis=*/0.35, 10);
  for (std::size_t i = 1; i < stable.size(); ++i) {
    EXPECT_EQ(stable[i], stable[0]) << "flapped on round " << i;
  }
  // ...while without hysteresis the same traffic flips it every batch —
  // proving the scenario actually bites and the margin is load-bearing.
  const auto flapping = boundary_victim_sides(/*hysteresis=*/0.0, 4);
  bool any_flip = false;
  for (std::size_t i = 1; i < flapping.size(); ++i) {
    any_flip = any_flip || flapping[i] != flapping[i - 1];
  }
  EXPECT_TRUE(any_flip);
}

TEST(OnlineProfiler, SingleVictimAlwaysLessVulnerable) {
  OnlineRiskProfiler profiler({"only"}, {});
  profiler.observe_risks(0, std::vector<double>{1000.0});
  const auto& partition = profiler.reassess();
  ASSERT_EQ(partition.less_vulnerable.size(), 1u);
  EXPECT_EQ(partition.less_vulnerable[0], 0u);
  EXPECT_TRUE(partition.more_vulnerable.empty());
  // Repeated reassessment of the degenerate population stays stable.
  profiler.observe_risks(0, std::vector<double>{0.5});
  EXPECT_EQ(profiler.reassess().less_vulnerable.size(), 1u);
}

}  // namespace
}  // namespace goodones::risk
