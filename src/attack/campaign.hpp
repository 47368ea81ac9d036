// Attack campaigns: run the evasion attack over each entity's telemetry and
// aggregate per-scenario success rates (the paper's Appendix-A figures),
// keeping per-window outcomes for the risk profiler and the detectors. A
// fleet's campaigns run as one sweep over the thread pool.
#pragma once

#include <span>
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
  /// Per-window attack settings.
  AttackConfig attack;
  /// Stride over the eligible windows (campaigns attack every n-th window;
  /// 1 attacks everything).
  std::size_t window_step = 4;
  /// Windows per shard (0 = auto-size from each entity's window count). Each
  /// shard is one EvasionAttack::attack_windows call on one entity's model,
  /// so the size bounds how many windows' probes merge into one
  /// predict_batch round. Outcomes do not depend on the sharding; it only
  /// shapes batching and dispatch.
  std::size_t shard_size = 0;
};

/// One campaign per entity, all in one sweep: outcomes[e] attacks every
/// `window_step`-th eligible window of *window_sets[e] (true state normal or
/// low — the states the adversary wants misdiagnosed as high) against
/// *models[e], in time order. Every entity's shards run in one
/// attack::run_shards call, so a fleet crosses one pool barrier and the
/// pool stays busy across entity boundaries; a shard never mixes two
/// models, so each entity's outcomes equal those of its own run_campaign
/// call. Progress and probe throughput land in core::metrics::counters()
/// under the "campaign." prefix.
std::vector<std::vector<WindowOutcome>> run_campaigns(
    std::span<const predict::Forecaster* const> models,
    std::span<const std::vector<data::Window>* const> window_sets,
    const CampaignConfig& config, common::ThreadPool& pool);

/// run_campaigns over one entity.
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
