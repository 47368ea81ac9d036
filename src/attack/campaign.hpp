// Attack campaigns: run the evasion attack over an entity's telemetry and
// aggregate per-scenario success rates (the paper's Appendix-A figures),
// keeping per-window outcomes for the risk profiler and the detectors.
#pragma once

#include <vector>

#include "attack/evasion.hpp"
#include "common/thread_pool.hpp"
#include "data/window.hpp"
#include "predict/forecaster.hpp"

namespace goodones::attack {

/// Everything recorded about one attacked window.
struct WindowOutcome {
  data::Window benign;               ///< the clean window (raw units)
  AttackResult attack;               ///< adversarial features + predictions
  data::StateLabel true_state = data::StateLabel::kNormal;  ///< state of the true future target
  data::StateLabel benign_predicted_state = data::StateLabel::kNormal;
  data::StateLabel adversarial_predicted_state = data::StateLabel::kNormal;
};

struct CampaignConfig {
  /// Per-window attack settings. attack.probe_precision also governs the
  /// campaign's merged lockstep probes — with an approximation lane (e.g.
  /// nn::Precision::kFast) every shard re-scores its final trajectories as
  /// one exact batch before reporting, so summarize() and the risk profiler
  /// only ever see full-double numbers.
  AttackConfig attack;
  /// Stride over the eligible windows (campaigns attack every n-th window;
  /// 1 attacks everything).
  std::size_t window_step = 4;
  /// Windows per shard (0 = auto-size from the window count). Each shard is
  /// one EvasionAttack::attack_windows call, so the size bounds how many
  /// windows' probes merge into one predict_batch round. Outcomes do not
  /// depend on the sharding; it only shapes batching and dispatch.
  std::size_t shard_size = 0;
};

/// Attacks every `window_step`-th eligible window (true state normal or
/// low — the states the adversary wants misdiagnosed as high). Outcomes
/// stay in time order. Sharded across the pool via attack::run_shards;
/// progress and probe throughput land in core::metrics::counters() under the
/// "campaign." prefix.
std::vector<WindowOutcome> run_campaign(const predict::Forecaster& model,
                                        const std::vector<data::Window>& windows,
                                        const CampaignConfig& config,
                                        common::ThreadPool& pool);

/// Success-rate summary per (origin state x regime) cell, matching the
/// paper's Fig. 9 (normal -> high) and Fig. 10 (low -> high). For the BGMS
/// domain: baseline = fasting, active = postprandial.
struct SuccessRates {
  std::size_t normal_baseline_attempts = 0;
  std::size_t normal_baseline_successes = 0;
  std::size_t normal_active_attempts = 0;
  std::size_t normal_active_successes = 0;
  std::size_t low_baseline_attempts = 0;
  std::size_t low_baseline_successes = 0;
  std::size_t low_active_attempts = 0;
  std::size_t low_active_successes = 0;

  double normal_baseline_rate() const noexcept;
  double normal_active_rate() const noexcept;
  double low_baseline_rate() const noexcept;
  double low_active_rate() const noexcept;
  /// Success rate over all attempts.
  double overall_rate() const noexcept;
};

SuccessRates summarize(const std::vector<WindowOutcome>& outcomes);

}  // namespace goodones::attack
