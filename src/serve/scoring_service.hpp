// The serving-path API: score live telemetry windows against a persisted
// serving bundle.
//
// A ScoreRequest names a monitored entity and carries one or more raw
// telemetry windows; the response reports, per window, the personalized
// forecast, the residual against the persistence reference, the verdict of
// the entity's vulnerability-cluster detector (the paper's step-5 routing)
// and a severity-weighted live risk score — the serving-time analogue of
// the paper's Eq. 1, with the last observed reading standing in for the
// benign prediction (at test time there is no known-benign model output to
// diff against; evasion pressure lands exactly here, cf. Biggio et al.).
//
// Batching: all windows of all concurrent requests addressed to the same
// entity run through one Forecaster::predict_batch call and ONE
// AnomalyDetector::score_batch call (the roadmap's detector-batching step:
// MAD-GAN amortizes its latent inversion), and entities shard across the
// service's thread pool.
// Throughput counters land in core::metrics::counters() under the
// "serve." prefix.
//
// Hot-swap: the service holds its bundle as an immutable snapshot behind a
// shared_ptr guarded by a mutex that is held only to copy or replace the
// pointer. swap_model() publishes a new bundle generation; readers and the
// swap contend only for that pointer copy, never for scoring work. Every
// request resolves ONE snapshot on entry and scores entirely against it, so
// concurrent traffic never observes a mixed old/new fleet — each
// ScoreResponse names the generation that served it.
// This is what lets serve::AdaptiveController refresh routing online (the
// paper's Appendix-D iterative reassessment) under live load.
//
// Canary: next to the primary snapshot the service can hold ONE candidate
// generation. The primary alone produces every response byte; after a
// response is assembled, a deterministic sample of traffic (CanaryTracker's
// splitmix draw over entity + request sequence) is re-scored against the
// candidate off the reply path and the verdict deltas accumulate in the
// tracker. When the tracker's policy decides — or an operator sends
// Promote/Rollback — the candidate either becomes the primary atomically
// (the same swap_model publication path) or is dropped. Either way the
// primary's verdicts are bitwise-identical to a service that never had a
// candidate at all.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.hpp"
#include "data/column_store.hpp"
#include "data/labels.hpp"
#include "nn/matrix.hpp"
#include "serve/canary.hpp"
#include "serve/model_registry.hpp"

namespace goodones::serve {

/// One raw telemetry window as it arrives from the field: (seq_len x
/// num_channels) readings in raw units plus the operating regime at
/// prediction time (regimes gate both thresholds and severity).
struct TelemetryWindow {
  nn::Matrix features;
  data::Regime regime = data::Regime::kBaseline;
};

struct ScoreRequest {
  /// Entity display name as registered in the bundle (e.g. "A_3", "SA_0").
  std::string entity;
  std::vector<TelemetryWindow> windows;
};

/// Verdict for one window.
struct WindowScore {
  double forecast = 0.0;   ///< personalized forecaster output, raw units
  double residual = 0.0;   ///< forecast minus last observed target reading
  data::StateLabel observed_state = data::StateLabel::kNormal;  ///< last reading
  data::StateLabel predicted_state = data::StateLabel::kNormal; ///< forecast
  double anomaly_score = 0.0;  ///< cluster detector's score (higher = worse)
  bool flagged = false;        ///< cluster detector's final decision
  /// Serving-time Eq. 1: severity(observed -> predicted) * residual^2.
  double risk = 0.0;
};

struct ScoreResponse {
  std::size_t entity_index = 0;
  Cluster cluster = Cluster::kLessVulnerable;
  /// Generation of the bundle snapshot that scored this response. All
  /// windows of one response are always served by the same generation.
  std::uint64_t generation = 0;
  std::vector<WindowScore> windows;  ///< request window order
};

struct ScoringServiceConfig {
  /// Worker threads for cross-entity sharding (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Sampling rate and promote/rollback policy for candidate generations.
  /// Inert until install_candidate() arms a canary.
  CanaryPolicy canary{};
};

/// Emitted whenever the canary lifecycle transitions: a candidate is
/// installed, promoted to primary, or rolled back — the same action the
/// registry's promotion lineage records. `automatic` separates
/// tracker-policy decisions from operator Promote/Rollback frames.
struct CanaryEvent {
  LineageAction action = LineageAction::kInstalled;
  std::uint64_t candidate_generation = 0;
  /// The primary generation the candidate was (or was being) measured
  /// against — for kPromoted this is the generation that just stepped down.
  std::uint64_t primary_generation = 0;
  std::uint64_t mirrored_windows = 0;
  bool automatic = false;
};

class ScoringService {
 public:
  /// Observes every finished response — the adaptive controller's
  /// feedback tap. Invoked on the scoring thread, once per response, AFTER
  /// it is final; it must be thread-safe under concurrent scoring calls.
  using ScoreObserver = std::function<void(const ScoreResponse&)>;

  /// Takes ownership of the bundle (load it via ModelRegistry::load or
  /// build it in memory via build_serving_model).
  explicit ScoringService(ServingModel model, ScoringServiceConfig config = {});
  ~ScoringService();

  ScoringService(const ScoringService&) = delete;
  ScoringService& operator=(const ScoringService&) = delete;

  /// The currently-served bundle snapshot. The pointer stays valid (and
  /// immutable) for as long as the caller holds it, even across swaps.
  std::shared_ptr<const ServingModel> model() const;

  /// Generation of the currently-served bundle.
  std::uint64_t generation() const;

  /// Atomically publishes a new bundle. In-flight requests finish against
  /// the snapshot they resolved on entry; requests arriving after the swap
  /// see the new generation. The new bundle must describe the same entity
  /// roster (the routing table may differ — that is the point).
  void swap_model(ServingModel model);

  /// Installs (or clears, with nullptr) the feedback observer.
  void set_observer(ScoreObserver observer);

  /// Observes canary lifecycle transitions (install/promote/rollback) —
  /// the daemon's lineage-recording tap. Invoked with the canary lock
  /// held; it must not call back into the canary API.
  using CanaryObserver = std::function<void(const CanaryEvent&)>;
  void set_canary_observer(CanaryObserver observer);

  /// Stages `model` as the candidate generation and arms mirroring under
  /// the configured CanaryPolicy. The candidate must describe the same
  /// entity roster as the primary. Replaces (abandons) any previous
  /// candidate. The primary response path is unaffected.
  void install_candidate(ServingModel model);

  /// Generation of the staged candidate, or 0 when none is staged.
  std::uint64_t candidate_generation() const;

  /// Promotes the candidate to primary (the atomic swap_model publication).
  /// `generation` 0 targets whatever candidate is staged; a non-zero
  /// generation must match the staged candidate (PreconditionError when a
  /// different candidate is staged). Returns false — retry-safely — when
  /// no candidate is staged (e.g. a duplicate Promote after success).
  bool promote_candidate(std::uint64_t generation = 0);

  /// Drops the candidate without touching the primary. Same generation
  /// addressing and idempotency contract as promote_candidate().
  bool rollback_candidate(std::uint64_t generation = 0);

  /// Snapshot of the canary tracker's metrics (Stats gauges, tests).
  CanaryMetrics canary_metrics() const;

  /// Scores one request (all its windows batch through one predict_batch
  /// and one detector score_batch).
  ScoreResponse score(const ScoreRequest& request) const;

  /// Scores concurrent requests: windows are regrouped per entity so each
  /// entity's forecaster sees one batch, and entities shard across the
  /// pool. Response i corresponds to requests[i]. Throws
  /// common::PreconditionError on an unknown entity, a window whose
  /// channel count disagrees with the bundle's spec, or a window whose
  /// row count violates the bundle detector's own geometry (MAD-GAN
  /// consumes fixed-seq_len windows; sample-level detectors accept any
  /// length >= 1).
  std::vector<ScoreResponse> score_batch(std::span<const ScoreRequest> requests) const;

  /// Scores zero-copy column-store windows for one entity (the ScoreLatest
  /// path: the daemon cuts WindowViews over its ColumnStore and scores them
  /// without ever materializing data::Window copies upstream). Each view is
  /// gathered exactly once into a scratch matrix — the single copy on this
  /// path — then runs the same scoring core as score()/score_batch(), so
  /// verdicts, counters, the observer and the canary mirror behave exactly
  /// as for a Score request carrying the same window bytes.
  ScoreResponse score_views(const std::string& entity,
                            std::span<const data::WindowView> views) const;

 private:
  /// One published bundle generation: the model plus its O(1) routing index,
  /// immutable after construction so readers need no lock.
  struct Snapshot {
    explicit Snapshot(ServingModel m);
    ServingModel model;
    std::unordered_map<std::string, std::size_t> entity_lookup;
  };

  /// A published shared_ptr: the mutex is held only to copy or replace the
  /// pointer, never while calling through it. (std::atomic<std::shared_ptr>
  /// would do the same job, but libstdc++ 12's load() releases its internal
  /// lock with a relaxed store, which ThreadSanitizer reports as a race with
  /// the next store.)
  template <typename T>
  class Published {
   public:
    std::shared_ptr<const T> load() const {
      const std::lock_guard<std::mutex> lock(mutex_);
      return ptr_;
    }
    /// The replaced pointer leaves in `next`, a parameter, so it is
    /// released only after the lock is dropped.
    void store(std::shared_ptr<const T> next) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ptr_.swap(next);
    }

   private:
    mutable std::mutex mutex_;
    std::shared_ptr<const T> ptr_;
  };

  std::shared_ptr<const Snapshot> snapshot() const { return snapshot_.load(); }

  /// One response's worth of windows as the scoring core consumes them:
  /// the entity name plus pointers into caller-owned window storage.
  struct EntityWindows {
    const std::string& entity;
    std::span<const nn::Matrix* const> features;
    std::span<const data::Regime> regimes;
  };

  /// The one scoring core behind score, score_batch and score_views.
  /// Resolves every item against ONE snapshot and validates its windows,
  /// then groups windows per entity: each entity runs one predict_batch and
  /// one detector score_batch, and entities shard across the pool. Bumps
  /// the counters, hands each finished response to the observer, then
  /// mirrors it to the canary candidate. Response i answers items[i].
  std::vector<ScoreResponse> score_core(std::span<const EntityWindows> items) const;

  /// Shadow-scores one already-scored item against the candidate and folds
  /// the verdict deltas into the tracker; applies any resulting policy
  /// decision. No-op when no canary is armed or the item has no windows.
  /// Never throws — a candidate failure is counted, the primary response
  /// is already final.
  void mirror_one(const EntityWindows& item, const ScoreResponse& primary) const;

  /// Shared promote/rollback resolution (manual frames and tracker
  /// decisions). `epoch` pins a tracker decision to the epoch it was made
  /// in so a stale auto decision can never fire after a manual override.
  bool resolve_candidate(bool promote, std::uint64_t generation,
                         std::optional<std::uint64_t> epoch, bool automatic);

  void emit_canary_event(const CanaryEvent& event) const;

  Published<Snapshot> snapshot_;
  Published<Snapshot> candidate_;
  Published<ScoreObserver> observer_;
  Published<CanaryObserver> canary_observer_;
  /// Serializes candidate lifecycle transitions (install/promote/rollback).
  /// Scoring and mirroring never take it.
  mutable std::mutex canary_mutex_;
  mutable CanaryTracker tracker_;
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace goodones::serve
