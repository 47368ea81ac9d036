#include "serve/canary.hpp"

#include <cmath>
#include <cstddef>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "risk/profile.hpp"

namespace goodones::serve {

namespace {

constexpr std::uint64_t kSampleDomain = 1000000;

}  // namespace

double CanaryClusterMetrics::flag_rate_delta() const {
  if (mirrored_windows == 0) return 0.0;
  const auto windows = static_cast<double>(mirrored_windows);
  return static_cast<double>(candidate_flags) / windows -
         static_cast<double>(primary_flags) / windows;
}

double CanaryClusterMetrics::risk_distance() const {
  return risk::distribution_distance(primary_risks, candidate_risks);
}

CanaryTracker::CanaryTracker(CanaryPolicy policy) : policy_(policy) {
  // A NaN bound never breaches (every candidate would promote) and a
  // negative one always does (every candidate would roll back).
  GO_EXPECTS(policy_.max_flag_rate_delta >= 0.0);
  GO_EXPECTS(policy_.max_risk_distance >= 0.0);
}

std::uint64_t CanaryTracker::install(std::uint64_t candidate_generation) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t epoch = metrics_.epoch + 1;
  metrics_ = CanaryMetrics{};
  metrics_.epoch = epoch;
  metrics_.state = CanaryState::kMirroring;
  metrics_.candidate_generation = candidate_generation;
  decided_ = false;
  // Sampling sequences restart with the epoch so every candidate is
  // measured against the same deterministic subset of an identical stream.
  entity_seq_.clear();
  armed_.store(true, std::memory_order_release);
  return epoch;
}

std::optional<std::uint64_t> CanaryTracker::begin_mirror(std::string_view entity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (metrics_.state != CanaryState::kMirroring) return std::nullopt;
  const std::uint64_t seq = entity_seq_[std::string(entity)]++;
  // One splitmix64 step seeded by (FNV-1a of the entity name, sequence): a
  // fixed (entity, seq) pair always lands on the same side of the sampling
  // threshold, on every platform that replays the same stream.
  std::uint64_t state = common::fnv1a64(entity) ^ (seq * 0x9E3779B97F4A7C15ULL);
  const std::uint64_t draw = common::splitmix64_next(state);
  if (draw % kSampleDomain >= policy_.sample_per_million) return std::nullopt;
  return metrics_.epoch;
}

CanaryTracker::AccumulateResult CanaryTracker::accumulate(
    std::uint64_t epoch, std::span<const WindowDelta> deltas) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (metrics_.state != CanaryState::kMirroring || epoch != metrics_.epoch) {
    return {};
  }
  metrics_.mirrored_requests += 1;
  metrics_.mirrored_windows += deltas.size();
  for (const WindowDelta& delta : deltas) {
    CanaryClusterMetrics& cluster =
        metrics_.clusters[static_cast<std::size_t>(delta.cluster)];
    cluster.mirrored_windows += 1;
    cluster.primary_flags += delta.primary_flagged ? 1 : 0;
    cluster.candidate_flags += delta.candidate_flagged ? 1 : 0;
    cluster.state_flips += delta.state_flip ? 1 : 0;
    if (cluster.primary_risks.size() < policy_.max_risk_samples_per_cluster) {
      cluster.primary_risks.push_back(delta.primary_risk);
      cluster.candidate_risks.push_back(delta.candidate_risk);
    } else {
      cluster.dropped_risk_samples += 1;
    }
  }
  AccumulateResult result;
  result.accepted = true;
  if (policy_.auto_decide && !decided_) result.decision = evaluate_locked();
  return result;
}

std::optional<CanaryDecision> CanaryTracker::evaluate_locked() {
  if (metrics_.mirrored_windows < policy_.min_mirrored_windows) return std::nullopt;
  metrics_.evaluations += 1;
  bool breach = false;
  for (const CanaryClusterMetrics& cluster : metrics_.clusters) {
    if (cluster.mirrored_windows == 0) continue;
    if (std::abs(cluster.flag_rate_delta()) > policy_.max_flag_rate_delta) breach = true;
    if (policy_.max_risk_distance > 0.0 &&
        cluster.risk_distance() > policy_.max_risk_distance) {
      breach = true;
    }
  }
  if (breach) {
    metrics_.breach_streak += 1;
    if (metrics_.breach_streak < policy_.breach_strikes) return std::nullopt;
    decided_ = true;
    return CanaryDecision::kRollback;
  }
  metrics_.breach_streak = 0;
  decided_ = true;
  return CanaryDecision::kPromote;
}

bool CanaryTracker::finish(std::uint64_t epoch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (metrics_.state != CanaryState::kMirroring || epoch != metrics_.epoch) {
    return false;
  }
  metrics_.state = CanaryState::kIdle;
  armed_.store(false, std::memory_order_release);
  return true;
}

CanaryState CanaryTracker::state() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.state;
}

std::uint64_t CanaryTracker::epoch() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.epoch;
}

std::uint64_t CanaryTracker::candidate_generation() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.candidate_generation;
}

CanaryMetrics CanaryTracker::metrics() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return metrics_;
}

}  // namespace goodones::serve
