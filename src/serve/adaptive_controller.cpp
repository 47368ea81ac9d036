#include "serve/adaptive_controller.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/metrics.hpp"

namespace goodones::serve {

AdaptiveController::AdaptiveController(ScoringService& service,
                                       AdaptiveControllerConfig config,
                                       BundleRebuilder rebuilder,
                                       const ModelRegistry* registry)
    : service_(service),
      config_(config),
      rebuilder_(std::move(rebuilder)),
      registry_(registry),
      profiler_(service.model()->entity_names, config.profiler) {
  GO_EXPECTS(config_.reassess_every_windows >= 1);
  if (registry_ != nullptr && registry_->contains_profiler(state_key())) {
    registry_->load_profiler(state_key(), profiler_);
    common::log_info("adaptive controller resumed profiler state from registry");
  }
  if (config_.auto_refresh) {
    worker_ = std::thread([this] { worker_loop(); });
  }
  service_.set_observer([this](const ScoreResponse& response) { ingest(response); });
}

AdaptiveController::~AdaptiveController() {
  service_.set_observer(nullptr);
  if (worker_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(worker_mutex_);
      worker_stop_ = true;
    }
    worker_cv_.notify_all();
    worker_.join();
  }
}

RegistryKey AdaptiveController::state_key() const {
  return registry_key(*service_.model());
}

void AdaptiveController::ingest(const ScoreResponse& response) {
  if (response.windows.empty()) return;
  std::vector<double> risks;
  risks.reserve(response.windows.size());
  for (const WindowScore& window : response.windows) risks.push_back(window.risk);

  bool due = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    profiler_.observe_risks(response.entity_index, risks);
    windows_since_reassess_ += risks.size();
    windows_ingested_ += risks.size();
    due = config_.auto_refresh &&
          windows_since_reassess_ >= config_.reassess_every_windows;
  }
  core::counters().add("serve.adaptive.windows_ingested", risks.size());
  // The tripping request only ENQUEUES for the refresh worker: its own
  // latency never includes the rebuild, and the heavy rebuild never stalls
  // concurrent scoring threads at the feedback tap.
  if (due) enqueue_refresh();
}

void AdaptiveController::enqueue_refresh() {
  {
    const std::lock_guard<std::mutex> lock(worker_mutex_);
    if (refresh_queued_) return;  // coalesce: one queued rebuild covers all trips
    refresh_queued_ = true;
  }
  core::counters().add("serve.adaptive.refreshes_enqueued", 1);
  worker_cv_.notify_one();
}

void AdaptiveController::worker_loop() {
  std::unique_lock<std::mutex> lock(worker_mutex_);
  for (;;) {
    worker_cv_.wait(lock, [this] { return refresh_queued_ || worker_stop_; });
    if (worker_stop_) return;
    refresh_queued_ = false;
    worker_busy_ = true;
    lock.unlock();
    // A failed refresh (full disk, throwing rebuilder) must never take the
    // service down: it keeps serving the current generation and the failure
    // surfaces through counters/logs. maybe_refresh() still throws for
    // callers who drive the loop explicitly.
    try {
      (void)try_refresh();
    } catch (const std::exception& error) {
      core::counters().add("serve.adaptive.refresh_failures", 1);
      common::log_warn("adaptive refresh failed; serving continues on the current "
                       "generation: ", error.what());
    }
    lock.lock();
    worker_busy_ = false;
    worker_cv_.notify_all();  // wake drain()ers
  }
}

void AdaptiveController::drain() {
  if (!worker_.joinable()) return;
  std::unique_lock<std::mutex> lock(worker_mutex_);
  worker_cv_.wait(lock, [this] { return !refresh_queued_ && !worker_busy_; });
}

bool AdaptiveController::maybe_refresh(bool force) { return try_refresh(force); }

bool AdaptiveController::try_refresh(bool force) {
  // Single-flight: while one thread rebuilds, others keep scoring (their
  // ingest() only takes the short observation lock above) and simply skip.
  if (refresh_in_flight_.exchange(true, std::memory_order_acq_rel)) return false;
  struct FlagGuard {
    std::atomic<bool>& flag;
    ~FlagGuard() { flag.store(false, std::memory_order_release); }
  } guard{refresh_in_flight_};

  // One canary at a time: while a candidate is still being measured, keep
  // accumulating evidence and let the staged canary resolve first.
  if (config_.canary && service_.candidate_generation() != 0) {
    core::counters().add("serve.canary.refresh_deferred", 1);
    return false;
  }

  // Phase 1 (under the lock, cheap): readiness check, reassessment, and
  // the routing comparison. The profiler is copied out so persistence can
  // happen after the lock is dropped.
  core::VulnerabilityClusters clusters;
  std::shared_ptr<const ServingModel> current;
  std::unique_ptr<risk::OnlineRiskProfiler> profiler_copy;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // reassess() needs evidence for every tracked entity; until the
    // quietest one has reported, keep accumulating (the counter keeps
    // growing so the next ingest retries immediately).
    for (std::size_t i = 0; i < profiler_.num_victims(); ++i) {
      if (profiler_.batches(i) == 0) return false;
    }
    windows_since_reassess_ = 0;

    const risk::OnlineRiskProfiler::Partition& partition = profiler_.reassess();
    clusters.less_vulnerable = partition.less_vulnerable;
    clusters.more_vulnerable = partition.more_vulnerable;

    // Compare against the served routing: a refresh only pays when an
    // entity actually moved across the vulnerability boundary. Swaps only
    // happen in this single-flight section, so `current` stays the served
    // bundle until we publish.
    current = service_.model();
    std::vector<Cluster> next_routing(current->entity_names.size(),
                                      Cluster::kLessVulnerable);
    for (const std::size_t p : clusters.more_vulnerable) {
      next_routing[p] = Cluster::kMoreVulnerable;
    }
    core::counters().add("serve.adaptive.reassessments", 1);
    if (next_routing == current->entity_cluster && !force) return false;
    profiler_copy = std::make_unique<risk::OnlineRiskProfiler>(profiler_);
  }

  // Phase 2 (lock-free for observers): rebuild, persist, publish.
  const std::uint64_t generation = current->generation + 1;
  ServingModel next = rebuilder_ ? rebuilder_(clusters, generation)
                                 : routing_only_rebuild(*current, clusters, generation);
  next.generation = generation;  // the stamp is the controller's contract

  // Persist BEFORE publication on either path: a generation must exist in
  // the registry the moment any verdict (served or mirrored) can name it,
  // so replay-by-generation never dangles.
  if (registry_ != nullptr) {
    registry_->save(next);
    registry_->save_profiler(state_key(), *profiler_copy);
  }
  if (config_.canary) {
    // Measured rollout: the rebuild enters as candidate; the canary policy
    // (or an operator Promote/Rollback) decides whether it becomes primary.
    service_.install_candidate(std::move(next));
    refreshes_.fetch_add(1, std::memory_order_acq_rel);
    core::counters().add("serve.adaptive.refreshes", 1);
    common::log_info("adaptive refresh staged generation ", generation,
                     " as canary candidate (", clusters.more_vulnerable.size(),
                     " entities more-vulnerable)");
    return true;
  }
  service_.swap_model(std::move(next));
  refreshes_.fetch_add(1, std::memory_order_acq_rel);
  core::counters().add("serve.adaptive.refreshes", 1);
  common::log_info("adaptive refresh published generation ", generation, " (",
                   clusters.more_vulnerable.size(), " entities more-vulnerable)");
  return true;
}

ServingModel AdaptiveController::routing_only_rebuild(
    const ServingModel& current, const core::VulnerabilityClusters& clusters,
    std::uint64_t generation) const {
  ServingModel next = clone_serving_model(current);
  next.generation = generation;
  std::fill(next.entity_cluster.begin(), next.entity_cluster.end(),
            Cluster::kLessVulnerable);
  for (const std::size_t p : clusters.more_vulnerable) {
    GO_EXPECTS(p < next.entity_cluster.size());
    next.entity_cluster[p] = Cluster::kMoreVulnerable;
  }
  return next;
}

std::size_t AdaptiveController::refreshes() const {
  return refreshes_.load(std::memory_order_acquire);
}

std::size_t AdaptiveController::windows_ingested() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return windows_ingested_;
}

risk::OnlineRiskProfiler AdaptiveController::profiler_snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return profiler_;
}

void AdaptiveController::save_state(const ModelRegistry& registry) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  registry.save_profiler(state_key(), profiler_);
}

}  // namespace goodones::serve
