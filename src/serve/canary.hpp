// Canary state for shadow-scored candidate generations.
//
// When the adaptive loop rebuilds a bundle it no longer has to trust the
// rebuild blindly: the new generation enters as a *candidate* that shadow-
// scores a deterministic sample of live traffic while the primary keeps
// answering every request. CanaryTracker owns everything about that
// evaluation that is not the scoring itself:
//
//   * the sampling decision — keyed by splitmix64 over (entity name, the
//     entity's request sequence number), never wall clock, so two identical
//     request streams mirror identical subsets (replayable canaries);
//   * the verdict-delta metrics, grouped by the PRIMARY's cluster routing:
//     flag-rate drift, state-flip counts, and paired risk samples feeding
//     risk::distribution_distance (1-D Wasserstein). All metrics are either
//     exact integer counters or computed on demand over sorted sample
//     copies, so the numbers are independent of the order in which
//     concurrent scoring threads accumulated them — a single-threaded
//     recomputation of the same mirrored set matches bitwise;
//   * the promote/rollback policy: once at least min_mirrored_windows have
//     been shadow-scored, every further accumulation evaluates the deltas;
//     breach_strikes consecutive breaching evaluations decide kRollback,
//     the first clean evaluation decides kPromote. The tracker only ever
//     *returns* a decision — acting on it (swapping snapshots) is the
//     ScoringService's job — and it decides at most once per epoch;
//   * the epoch lifecycle: install() arms a new epoch and resets state,
//     finish() disarms it exactly once (the double-promote guard), and
//     accumulate()/begin_mirror() reject anything stale, so no window is
//     ever mirrored or counted after a rollback.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/model_registry.hpp"

namespace goodones::serve {

struct CanaryPolicy {
  /// Mirroring sample rate in parts per million (100000 = 10% of requests).
  std::uint64_t sample_per_million = 100000;
  /// Evidence gate: no auto decision before this many mirrored windows.
  std::uint64_t min_mirrored_windows = 256;
  /// Breach when any cluster's |candidate - primary| flag rate exceeds this.
  /// Both bounds must be >= 0; CanaryTracker refuses NaN and negatives.
  double max_flag_rate_delta = 0.1;
  /// Breach when any cluster's risk-distribution distance exceeds this
  /// (0 = risk-distance breaches disabled; flag-rate drift still applies).
  double max_risk_distance = 0.0;
  /// Consecutive breaching evaluations before the tracker decides rollback.
  std::uint64_t breach_strikes = 3;
  /// When false the tracker only accumulates; promote/rollback is manual.
  bool auto_decide = true;
  /// Cap on stored risk-sample pairs per cluster (overflow is counted, not
  /// silently ignored). Bounds tracker memory under long canaries.
  std::size_t max_risk_samples_per_cluster = 65536;
};

enum class CanaryState : std::uint8_t { kIdle = 0, kMirroring = 1 };
enum class CanaryDecision : std::uint8_t { kPromote = 0, kRollback = 1 };

/// Primary-vs-candidate verdict delta for one mirrored window.
struct WindowDelta {
  Cluster cluster = Cluster::kLessVulnerable;  ///< primary's routing
  bool primary_flagged = false;
  bool candidate_flagged = false;
  bool state_flip = false;  ///< candidate predicted_state != primary's
  double primary_risk = 0.0;
  double candidate_risk = 0.0;
};

/// Per-cluster accumulation. Counters are exact; rates/distances are
/// derived on demand (over sorted copies), so accumulation order and
/// thread interleaving cannot change any reported number.
struct CanaryClusterMetrics {
  std::uint64_t mirrored_windows = 0;
  std::uint64_t primary_flags = 0;
  std::uint64_t candidate_flags = 0;
  std::uint64_t state_flips = 0;
  std::uint64_t dropped_risk_samples = 0;  ///< pairs past the storage cap
  std::vector<double> primary_risks;
  std::vector<double> candidate_risks;

  /// Signed candidate-minus-primary flag rate over the mirrored windows
  /// (0 before any window was mirrored).
  double flag_rate_delta() const;
  /// risk::distribution_distance over the stored sample pairs.
  double risk_distance() const;
};

struct CanaryMetrics {
  std::uint64_t epoch = 0;
  CanaryState state = CanaryState::kIdle;
  std::uint64_t candidate_generation = 0;
  std::uint64_t mirrored_requests = 0;
  std::uint64_t mirrored_windows = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t breach_streak = 0;
  /// Indexed by Cluster value (kLessVulnerable = 0, kMoreVulnerable = 1).
  std::array<CanaryClusterMetrics, 2> clusters;
};

class CanaryTracker {
 public:
  struct AccumulateResult {
    bool accepted = false;  ///< false: stale epoch or not mirroring
    std::optional<CanaryDecision> decision;
  };

  explicit CanaryTracker(CanaryPolicy policy = {});

  const CanaryPolicy& policy() const { return policy_; }

  /// Arms a new canary epoch for `candidate_generation`: bumps the epoch,
  /// resets all metrics and per-entity sampling sequences, and starts
  /// mirroring. Returns the new epoch. Any previous epoch is abandoned.
  std::uint64_t install(std::uint64_t candidate_generation);

  /// The per-request sampling decision. Returns the current epoch when the
  /// request should be mirrored, nullopt when idle or not sampled. The
  /// draw is splitmix64 over (FNV-1a of the entity name, that entity's
  /// own request sequence number) — deterministic per stream, never time.
  std::optional<std::uint64_t> begin_mirror(std::string_view entity);

  /// Folds one mirrored request's window deltas. Rejects stale epochs and
  /// anything after finish() (accepted = false), so no sample leaks across
  /// a promote/rollback boundary. May return the policy's decision — at
  /// most once per epoch.
  AccumulateResult accumulate(std::uint64_t epoch,
                              std::span<const WindowDelta> deltas);

  /// Ends the given epoch exactly once: returns true for the first caller
  /// with the live epoch, false ever after (and for stale epochs). This is
  /// the double-promote/double-rollback guard.
  bool finish(std::uint64_t epoch);

  /// Lock-free "is anything mirroring" probe for the scoring hot path.
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  CanaryState state() const;
  std::uint64_t epoch() const;
  std::uint64_t candidate_generation() const;
  /// Snapshot of the current metrics (valid after finish() too, until the
  /// next install()).
  CanaryMetrics metrics() const;

 private:
  std::optional<CanaryDecision> evaluate_locked();

  CanaryPolicy policy_;
  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  CanaryMetrics metrics_;
  bool decided_ = false;
  std::unordered_map<std::string, std::uint64_t> entity_seq_;
};

}  // namespace goodones::serve
