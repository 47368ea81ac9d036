#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "domains/bgms/glucose_state.hpp"
#include "risk/profile.hpp"
#include "risk/schedule.hpp"
#include "risk/severity.hpp"

namespace goodones::risk {
namespace {

using StateLabel = data::StateLabel;
using bgms::glycemic_thresholds;

/// Table I as the engine weighs risk with it.
double severity(StateLabel benign, StateLabel adversarial) {
  return SeveritySchedule::paper_default().coefficient(benign, adversarial);
}

/// Eq. 1 under Table I.
double risk_of(const attack::WindowOutcome& outcome) {
  return instantaneous_risk(outcome, SeveritySchedule::paper_default());
}

TEST(Severity, TableMatchesPaperTableI) {
  const auto& table = severity_table();
  ASSERT_EQ(table.size(), 6u);
  EXPECT_DOUBLE_EQ(table[0].coefficient, 64.0);  // Hypo -> Hyper
  EXPECT_EQ(table[0].benign, StateLabel::kLow);
  EXPECT_EQ(table[0].adversarial, StateLabel::kHigh);
  EXPECT_DOUBLE_EQ(table[1].coefficient, 32.0);  // Normal -> Hyper
  EXPECT_DOUBLE_EQ(table[2].coefficient, 16.0);  // Hypo -> Normal
  EXPECT_DOUBLE_EQ(table[3].coefficient, 8.0);   // Hyper -> Hypo
  EXPECT_DOUBLE_EQ(table[4].coefficient, 4.0);   // Hyper -> Normal
  EXPECT_DOUBLE_EQ(table[5].coefficient, 2.0);   // Normal -> Hypo
}

TEST(Severity, CoefficientsAreExponential) {
  const auto& table = severity_table();
  for (std::size_t i = 0; i + 1 < table.size(); ++i) {
    EXPECT_DOUBLE_EQ(table[i].coefficient, 2.0 * table[i + 1].coefficient);
  }
}

TEST(Severity, LookupMatchesTable) {
  EXPECT_DOUBLE_EQ(severity(StateLabel::kLow, StateLabel::kHigh), 64.0);
  EXPECT_DOUBLE_EQ(severity(StateLabel::kNormal, StateLabel::kHigh), 32.0);
  EXPECT_DOUBLE_EQ(severity(StateLabel::kNormal, StateLabel::kLow), 2.0);
}

TEST(Severity, IdentityTransitionsCarryUnitWeight) {
  for (const auto state :
       {StateLabel::kLow, StateLabel::kNormal, StateLabel::kHigh}) {
    EXPECT_DOUBLE_EQ(severity(state, state), 1.0);
  }
}

TEST(Severity, WorstCaseIsHypoToHyper) {
  const double worst = severity(StateLabel::kLow, StateLabel::kHigh);
  for (const auto& entry : severity_table()) {
    EXPECT_LE(entry.coefficient, worst);
  }
}

TEST(Risk, DeviationMagnitudeIsSquaredDifference) {
  EXPECT_DOUBLE_EQ(deviation_magnitude(90.0, 210.0), 120.0 * 120.0);
  EXPECT_DOUBLE_EQ(deviation_magnitude(210.0, 90.0), 120.0 * 120.0);  // symmetric
  EXPECT_DOUBLE_EQ(deviation_magnitude(100.0, 100.0), 0.0);
}

attack::WindowOutcome make_outcome(double benign_pred, double adv_pred,
                                   data::Regime regime) {
  attack::WindowOutcome outcome;
  outcome.benign.regime = regime;
  outcome.attack.benign_prediction = benign_pred;
  outcome.attack.adversarial_prediction = adv_pred;
  outcome.benign_predicted_state = glycemic_thresholds().classify(benign_pred, regime);
  outcome.adversarial_predicted_state = glycemic_thresholds().classify(adv_pred, regime);
  return outcome;
}

TEST(Risk, InstantaneousRiskCombinesSeverityAndDeviation) {
  // Normal(100) -> fasting Hyper(200): S=32, Z=100^2.
  const auto outcome = make_outcome(100.0, 200.0, data::Regime::kBaseline);
  EXPECT_DOUBLE_EQ(risk_of(outcome), 32.0 * 100.0 * 100.0);
}

TEST(Risk, HypoToHyperIsWorst) {
  const auto hypo = make_outcome(60.0, 200.0, data::Regime::kBaseline);
  const auto normal = make_outcome(100.0, 240.0, data::Regime::kBaseline);
  // Same deviation magnitude (140), hypo origin doubles the severity.
  EXPECT_DOUBLE_EQ(risk_of(hypo), 64.0 * 140.0 * 140.0);
  EXPECT_DOUBLE_EQ(risk_of(normal), 32.0 * 140.0 * 140.0);
  EXPECT_GT(risk_of(hypo), risk_of(normal));
}

TEST(Risk, FailedAttackSmallDeviationLowRisk) {
  const auto outcome = make_outcome(100.0, 105.0, data::Regime::kBaseline);
  EXPECT_DOUBLE_EQ(risk_of(outcome), 1.0 * 25.0);  // identity S=1
}

TEST(Profile, BuildPreservesOrderAndLength) {
  std::vector<attack::WindowOutcome> outcomes;
  outcomes.push_back(make_outcome(100.0, 200.0, data::Regime::kBaseline));
  outcomes.push_back(make_outcome(100.0, 100.0, data::Regime::kBaseline));
  outcomes.push_back(make_outcome(60.0, 200.0, data::Regime::kBaseline));

  const RiskProfile profile = build_profile("A_1", outcomes, SeveritySchedule::paper_default());
  ASSERT_EQ(profile.values.size(), 3u);
  EXPECT_DOUBLE_EQ(profile.values[0], 32.0 * 100.0 * 100.0);
  EXPECT_DOUBLE_EQ(profile.values[1], 0.0);
  EXPECT_DOUBLE_EQ(profile.values[2], 64.0 * 140.0 * 140.0);
  EXPECT_DOUBLE_EQ(profile.peak(), 64.0 * 140.0 * 140.0);
  EXPECT_GT(profile.mean(), 0.0);
}

TEST(Profile, LogScalingCompresses) {
  RiskProfile profile;
  profile.values = {0.0, std::exp(1.0) - 1.0, 1e6};
  const auto scaled = profile.log_scaled();
  EXPECT_DOUBLE_EQ(scaled[0], 0.0);
  EXPECT_NEAR(scaled[1], 1.0, 1e-12);
  EXPECT_LT(scaled[2], 15.0);
}

TEST(Profile, AlignTruncatesToShortest) {
  std::vector<RiskProfile> profiles(3);
  profiles[0].values = {1.0, 2.0, 3.0, 4.0};
  profiles[1].values = {1.0, 2.0};
  profiles[2].values = {5.0, 6.0, 7.0};
  const auto aligned = align_profiles(std::move(profiles));
  for (const auto& p : aligned) EXPECT_EQ(p.values.size(), 2u);
  EXPECT_DOUBLE_EQ(aligned[2].values[1], 6.0);
}

TEST(Profile, AlignRejectsEmptyInputs) {
  EXPECT_THROW((void)align_profiles({}), common::PreconditionError);
  std::vector<RiskProfile> with_empty(2);
  with_empty[0].values = {1.0};
  EXPECT_THROW((void)align_profiles(std::move(with_empty)), common::PreconditionError);
}

/// Property sweep: risk must be monotone in the adversarial deviation.
class RiskMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(RiskMonotonicity, LargerDeviationNeverLowersRisk) {
  const double base_pred = GetParam();
  double previous = -1.0;
  for (double adv = base_pred; adv <= 499.0; adv += 25.0) {
    const auto outcome = make_outcome(base_pred, adv, data::Regime::kBaseline);
    const double risk = risk_of(outcome);
    ASSERT_GE(risk, previous) << "adv=" << adv;
    previous = risk;
  }
}

INSTANTIATE_TEST_SUITE_P(BenignLevels, RiskMonotonicity,
                         ::testing::Values(60.0, 80.0, 100.0, 120.0));

}  // namespace
}  // namespace goodones::risk
