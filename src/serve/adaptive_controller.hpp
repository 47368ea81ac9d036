// The adaptive serving loop — the paper's Appendix-D/§V sketch made
// operational: "an iterative process that regularly reassesses patient
// risk profiles and continuously updates them as new data become
// available".
//
// The controller taps the ScoringService's feedback hook, feeds every
// scored window's serving-time risk (Eq. 1) into a risk::OnlineRiskProfiler,
// and periodically reassesses the vulnerability partition. When the
// reassessment moves entities across the vulnerability boundary it rebuilds
// the serving bundle — by default a routing-only rebuild (clone the bundle,
// reroute entities to their new cluster detector), or through a caller
// -supplied BundleRebuilder that retrains the per-cluster detectors via
// core::RiskProfilingFramework::train_detector — stamps it with the next
// generation and hot-swaps it into the service. Static defenses are what
// adaptive adversaries learn around; this loop is the repo's answer.
//
// Persistence: given a ModelRegistry, every published generation and the
// profiler's own state are persisted, so a restarted controller resumes
// profiling exactly where it left off (construction loads the saved state)
// and a restarted server can resolve the newest bundle via
// ModelRegistry::latest().
//
// Threading: ingest() (and therefore the hook) may be called from
// concurrent score_batch threads; it takes only a short observation lock.
// When the cadence trips, the tripping request ENQUEUES a refresh for the
// controller's dedicated refresh worker and returns immediately — scoring
// latency never includes a rebuild, even a detector-retraining one (the
// daemon e2e test pins this with a latency bound). The worker reassesses,
// rebuilds, persists and hot-swaps via the service's snapshot publish;
// back-to-back trips while a rebuild is running coalesce into one queued
// request. drain() blocks until the queue is empty and the worker idle
// (tests, clean shutdown). Auto-refresh failures
// (full disk, throwing rebuilder) are contained on the worker: scoring
// keeps serving the current generation and the failure lands in the
// "serve.adaptive.refresh_failures" counter and the log — the counter is
// the ONLY signal, so monitor it.
// Stop traffic before destroying the controller (the hook captures `this`).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/strategy.hpp"
#include "risk/online.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"

namespace goodones::serve {

struct AdaptiveControllerConfig {
  risk::OnlineProfilerConfig profiler;
  /// Scored windows (across all entities) between partition reassessments.
  std::size_t reassess_every_windows = 256;
  /// Reassess (and possibly refresh) automatically from the feedback hook,
  /// on the controller's refresh worker. With false, the loop is driven
  /// manually through maybe_refresh(), which runs on its caller's thread.
  bool auto_refresh = true;
  /// Stop hot-swapping blindly: publish rebuilt bundles as canary
  /// CANDIDATES (ScoringService::install_candidate) instead of swapping
  /// them straight in. The service's CanaryPolicy then auto-promotes or
  /// auto-rollbacks on mirrored evidence, with Promote/Rollback frames as
  /// the manual override. While a candidate is staged, further refreshes
  /// are deferred (the "serve.canary.refresh_deferred" counter) so only
  /// one canary is ever in flight.
  bool canary = false;
};

class AdaptiveController {
 public:
  /// Builds the next bundle for a reassessed partition: receives the
  /// canonical vulnerability partition (entity indices) and the generation
  /// to stamp. The serve-layer default is a routing-only rebuild via
  /// clone_serving_model; pass a rebuilder wrapping
  /// build_serving_model(framework, kind, partition, generation) to also
  /// retrain the per-cluster detectors on their new victim sets.
  using BundleRebuilder =
      std::function<ServingModel(const core::VulnerabilityClusters&, std::uint64_t)>;

  /// Attaches to `service`'s feedback hook. `registry`, when non-null, must
  /// outlive the controller; generations and profiler state persist through
  /// it. A previously persisted profiler state for the bundle's key is
  /// restored automatically.
  explicit AdaptiveController(ScoringService& service,
                              AdaptiveControllerConfig config = {},
                              BundleRebuilder rebuilder = {},
                              const ModelRegistry* registry = nullptr);
  ~AdaptiveController();

  AdaptiveController(const AdaptiveController&) = delete;
  AdaptiveController& operator=(const AdaptiveController&) = delete;

  /// Feedback entry point (the hook calls this): folds the response's
  /// per-window risks into the profiler and, when auto_refresh is on and
  /// enough windows accumulated, queues a reassessment for the worker.
  void ingest(const ScoreResponse& response);

  /// Forces a reassessment now (regardless of the window cadence) and
  /// refreshes the served bundle if the partition moved. Returns true when
  /// a new generation was published (canary mode: staged as candidate).
  /// No-op (false) until every entity has contributed at least one
  /// observation batch, or while another refresh is already in flight.
  /// With `force`, a rebuild is published even when the reassessed
  /// partition equals the served routing — the canary-mode operator path
  /// ("stage a candidate now and let the mirror measure it"), and why the
  /// daemon forces manual Refresh frames when canary mode is on.
  bool maybe_refresh(bool force = false);

  /// Blocks until the refresh worker has no queued and no in-flight work
  /// (immediately when auto_refresh is off). After drain() returns, every
  /// cadence trip observed so far has either published or been resolved as
  /// a no-op/failure.
  void drain();

  /// Number of generations this controller has published.
  std::size_t refreshes() const;

  /// Total windows ingested through the feedback hook.
  std::size_t windows_ingested() const;

  /// The profiler's current view (levels, batches, last partition).
  /// Snapshot-read under the controller lock.
  risk::OnlineRiskProfiler profiler_snapshot() const;

  /// Persists the profiler state through `registry` under the served
  /// bundle's key (also done automatically on refresh when the controller
  /// owns a registry).
  void save_state(const ModelRegistry& registry) const;

 private:
  RegistryKey state_key() const;
  /// Single-flight refresh: reassess under the short observation lock,
  /// then rebuild/persist/swap with the lock RELEASED so concurrent
  /// scoring threads never stall at the feedback tap. Returns true when a
  /// new generation was published; false when not ready, nothing moved,
  /// or another refresh is already in flight.
  bool try_refresh(bool force = false);
  /// Hands a refresh to the worker (coalescing with one already queued).
  void enqueue_refresh();
  void worker_loop();
  ServingModel routing_only_rebuild(const ServingModel& current,
                                    const core::VulnerabilityClusters& clusters,
                                    std::uint64_t generation) const;

  ScoringService& service_;
  AdaptiveControllerConfig config_;
  BundleRebuilder rebuilder_;
  const ModelRegistry* registry_;

  mutable std::mutex mutex_;  // guards profiler_ + window counters
  risk::OnlineRiskProfiler profiler_;
  std::size_t windows_since_reassess_ = 0;
  std::size_t windows_ingested_ = 0;
  std::atomic<bool> refresh_in_flight_{false};
  std::atomic<std::size_t> refreshes_{0};

  // Refresh worker (auto_refresh): its own mutex so enqueueing never
  // contends with the observation lock beyond the cadence check itself.
  mutable std::mutex worker_mutex_;
  std::condition_variable worker_cv_;
  bool refresh_queued_ = false;
  bool worker_busy_ = false;
  bool worker_stop_ = false;
  std::thread worker_;
};

}  // namespace goodones::serve
