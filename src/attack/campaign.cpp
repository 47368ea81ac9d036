#include "attack/campaign.hpp"

#include <span>
#include <utility>

#include "attack/scheduler.hpp"
#include "common/error.hpp"
#include "core/metrics.hpp"

namespace goodones::attack {

namespace {

double rate(std::size_t successes, std::size_t attempts) noexcept {
  return attempts == 0 ? 0.0
                       : static_cast<double>(successes) / static_cast<double>(attempts);
}

}  // namespace

std::vector<WindowOutcome> run_campaign(const predict::Forecaster& model,
                                        const std::vector<data::Window>& windows,
                                        const CampaignConfig& config,
                                        common::ThreadPool& pool) {
  GO_EXPECTS(config.window_step > 0);

  // Eligible: the adversary targets instances whose true state is normal or
  // low (already-high instances give the attacker nothing).
  const data::StateThresholds& thresholds = config.attack.thresholds;
  std::vector<const data::Window*> eligible;
  for (std::size_t i = 0; i < windows.size(); i += config.window_step) {
    const data::Window& w = windows[i];
    const auto state = thresholds.classify(w.target_value, w.regime);
    if (state != data::StateLabel::kHigh) eligible.push_back(&w);
  }

  const EvasionAttack attack(config.attack);
  std::vector<WindowOutcome> outcomes(eligible.size());
  run_shards(pool, eligible.size(), config.shard_size, [&](std::size_t begin, std::size_t end) {
    std::vector<AttackResult> results(end - begin);
    attack.attack_windows(
        model, std::span<const data::Window* const>(eligible).subspan(begin, end - begin),
        results);
    for (std::size_t i = begin; i < end; ++i) {
      const data::Window& w = *eligible[i];
      WindowOutcome& outcome = outcomes[i];
      outcome.benign = w;
      outcome.attack = std::move(results[i - begin]);
      outcome.true_state = thresholds.classify(w.target_value, w.regime);
      outcome.benign_predicted_state =
          thresholds.classify(outcome.attack.benign_prediction, w.regime);
      outcome.adversarial_predicted_state =
          config.attack.induced_state(outcome.attack.adversarial_prediction, w.regime);
    }
  });

  std::uint64_t probes = 0;
  std::uint64_t successes = 0;
  for (const WindowOutcome& outcome : outcomes) {
    probes += outcome.attack.probes;
    successes += outcome.attack.success ? 1 : 0;
  }
  core::counters().add("campaign.probes", probes);
  core::counters().add("campaign.successes", successes);
  return outcomes;
}

double SuccessRates::normal_baseline_rate() const noexcept {
  return rate(normal_baseline_successes, normal_baseline_attempts);
}
double SuccessRates::normal_active_rate() const noexcept {
  return rate(normal_active_successes, normal_active_attempts);
}
double SuccessRates::low_baseline_rate() const noexcept {
  return rate(low_baseline_successes, low_baseline_attempts);
}
double SuccessRates::low_active_rate() const noexcept {
  return rate(low_active_successes, low_active_attempts);
}
double SuccessRates::overall_rate() const noexcept {
  const std::size_t attempts = normal_baseline_attempts + normal_active_attempts +
                               low_baseline_attempts + low_active_attempts;
  const std::size_t successes = normal_baseline_successes + normal_active_successes +
                                low_baseline_successes + low_active_successes;
  return rate(successes, attempts);
}

SuccessRates summarize(const std::vector<WindowOutcome>& outcomes) {
  SuccessRates rates;
  for (const auto& outcome : outcomes) {
    const bool baseline = outcome.benign.regime == data::Regime::kBaseline;
    const bool success = outcome.attack.success;
    if (outcome.true_state == data::StateLabel::kNormal) {
      if (baseline) {
        ++rates.normal_baseline_attempts;
        rates.normal_baseline_successes += success ? 1 : 0;
      } else {
        ++rates.normal_active_attempts;
        rates.normal_active_successes += success ? 1 : 0;
      }
    } else if (outcome.true_state == data::StateLabel::kLow) {
      if (baseline) {
        ++rates.low_baseline_attempts;
        rates.low_baseline_successes += success ? 1 : 0;
      } else {
        ++rates.low_active_attempts;
        rates.low_active_successes += success ? 1 : 0;
      }
    }
  }
  return rates;
}

}  // namespace goodones::attack
