#include "serve/scoring_service.hpp"

#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "core/metrics.hpp"
#include "core/sample_features.hpp"
#include "risk/profile.hpp"

namespace goodones::serve {

namespace {

/// (item, window) coordinate of one window routed to an entity.
struct WindowRef {
  std::size_t item = 0;
  std::size_t window = 0;
};

/// Scores one entity's windows: one predict_batch, one detector
/// score_batch, then the per-window verdict math. Consumes POINTERS into
/// caller-owned feature storage — the hot path copies no window bytes.
/// Result i corresponds to features[i]/regimes[i].
std::vector<WindowScore> score_entity_windows(const ServingModel& model,
                                              std::size_t entity,
                                              std::span<const nn::Matrix* const> features,
                                              std::span<const data::Regime> regimes) {
  const core::DomainSpec& spec = model.spec;
  const predict::Forecaster& forecaster = model.forecasters[entity];
  const detect::AnomalyDetector& detector = model.detector_for(entity);
  const bool sample_level =
      detector.granularity() == detect::InputGranularity::kSample;

  const std::vector<double> forecasts = forecaster.predict_batch(features);

  // One detector call for the whole (entity, batch) group. The detector
  // transforms are real computations (sample extraction / scaling), not
  // window copies.
  std::vector<nn::Matrix> detector_inputs;
  detector_inputs.reserve(features.size());
  for (const nn::Matrix* w : features) {
    detector_inputs.push_back(sample_level
                                  ? core::window_sample(spec, model.detector_scaler, *w)
                                  : model.detector_scaler.transform(*w));
  }
  const std::vector<double> anomaly_scores =
      detector.score_batch(std::span<const nn::Matrix>(detector_inputs));

  std::vector<WindowScore> scores(features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    const nn::Matrix& window = *features[i];
    WindowScore& score = scores[i];

    score.forecast = forecasts[i];
    const double last_observed = window(window.rows() - 1, spec.target_channel);
    score.residual = score.forecast - last_observed;
    score.observed_state = spec.thresholds.classify(last_observed, regimes[i]);
    score.predicted_state = spec.thresholds.classify(score.forecast, regimes[i]);
    score.risk = spec.severity.coefficient(score.observed_state, score.predicted_state) *
                 risk::deviation_magnitude(last_observed, score.forecast);

    score.anomaly_score = anomaly_scores[i];
    score.flagged = detector.flags_from_score(detector_inputs[i], score.anomaly_score);
  }
  return scores;
}

}  // namespace

ScoringService::Snapshot::Snapshot(ServingModel m) : model(std::move(m)) {
  GO_EXPECTS(!model.forecasters.empty());
  GO_EXPECTS(model.forecasters.size() == model.entity_names.size());
  GO_EXPECTS(model.entity_cluster.size() == model.entity_names.size());
  GO_EXPECTS(model.cluster_detectors[0] != nullptr);
  GO_EXPECTS(model.cluster_detectors[1] != nullptr);
  entity_lookup.reserve(model.entity_names.size());
  for (std::size_t i = 0; i < model.entity_names.size(); ++i) {
    entity_lookup.emplace(model.entity_names[i], i);
  }
}

ScoringService::ScoringService(ServingModel model, ScoringServiceConfig config)
    : tracker_(config.canary),
      pool_(std::make_unique<common::ThreadPool>(config.threads)) {
  snapshot_.store(std::make_shared<const Snapshot>(std::move(model)));
}

ScoringService::~ScoringService() = default;

std::shared_ptr<const ServingModel> ScoringService::model() const {
  // Aliasing constructor: the returned pointer shares the snapshot's
  // lifetime, so a caller-held bundle survives any number of swaps.
  std::shared_ptr<const Snapshot> snap = snapshot();
  return std::shared_ptr<const ServingModel>(snap, &snap->model);
}

std::uint64_t ScoringService::generation() const {
  return snapshot()->model.generation;
}

void ScoringService::swap_model(ServingModel model) {
  const std::shared_ptr<const Snapshot> current = snapshot();
  // The roster is the service's identity: swapping to a different entity
  // set would silently invalidate the profiler/controller state keyed to
  // it. Routing (entity_cluster) and detectors are exactly what may change.
  GO_EXPECTS(model.entity_names == current->model.entity_names);
  snapshot_.store(std::make_shared<const Snapshot>(std::move(model)));
}

void ScoringService::set_observer(ScoreObserver observer) {
  if (observer) {
    observer_.store(std::make_shared<const ScoreObserver>(std::move(observer)));
  } else {
    observer_.store(nullptr);
  }
}

void ScoringService::set_canary_observer(CanaryObserver observer) {
  if (observer) {
    canary_observer_.store(std::make_shared<const CanaryObserver>(std::move(observer)));
  } else {
    canary_observer_.store(nullptr);
  }
}

void ScoringService::emit_canary_event(const CanaryEvent& event) const {
  if (const std::shared_ptr<const CanaryObserver> observer = canary_observer_.load()) {
    (*observer)(event);
  }
}

void ScoringService::install_candidate(ServingModel model) {
  const std::lock_guard<std::mutex> lock(canary_mutex_);
  const std::shared_ptr<const Snapshot> current = snapshot();
  // Same roster contract as swap_model: the candidate must be able to take
  // over the primary's traffic the instant it is promoted.
  GO_EXPECTS(model.entity_names == current->model.entity_names);
  auto staged = std::make_shared<const Snapshot>(std::move(model));
  const std::uint64_t candidate_gen = staged->model.generation;
  candidate_.store(std::move(staged));
  tracker_.install(candidate_gen);
  core::counters().add("serve.canary.installs", 1);

  CanaryEvent event;
  event.action = LineageAction::kInstalled;
  event.candidate_generation = candidate_gen;
  event.primary_generation = current->model.generation;
  emit_canary_event(event);
}

std::uint64_t ScoringService::candidate_generation() const {
  const std::shared_ptr<const Snapshot> candidate = candidate_.load();
  return candidate ? candidate->model.generation : 0;
}

bool ScoringService::promote_candidate(std::uint64_t generation) {
  return resolve_candidate(/*promote=*/true, generation, std::nullopt,
                           /*automatic=*/false);
}

bool ScoringService::rollback_candidate(std::uint64_t generation) {
  return resolve_candidate(/*promote=*/false, generation, std::nullopt,
                           /*automatic=*/false);
}

CanaryMetrics ScoringService::canary_metrics() const {
  return tracker_.metrics();
}

bool ScoringService::resolve_candidate(bool promote, std::uint64_t generation,
                                       std::optional<std::uint64_t> epoch,
                                       bool automatic) {
  const std::lock_guard<std::mutex> lock(canary_mutex_);
  const std::shared_ptr<const Snapshot> candidate = candidate_.load();
  if (!candidate) return false;
  if (generation != 0 && candidate->model.generation != generation) {
    throw common::PreconditionError(
        std::string(promote ? "promote" : "rollback") +
        " names generation " + std::to_string(generation) +
        " but the staged candidate is generation " +
        std::to_string(candidate->model.generation));
  }
  // Exactly-once: the first resolver (manual frame or tracker decision)
  // wins; a stale auto decision from an abandoned epoch never fires.
  if (!tracker_.finish(epoch.value_or(tracker_.epoch()))) return false;
  const CanaryMetrics final_metrics = tracker_.metrics();

  CanaryEvent event;
  event.candidate_generation = candidate->model.generation;
  event.primary_generation = snapshot()->model.generation;
  event.mirrored_windows = final_metrics.mirrored_windows;
  event.automatic = automatic;

  auto& counters = core::counters();
  if (promote) {
    snapshot_.store(candidate);
    event.action = LineageAction::kPromoted;
    counters.add("serve.canary.promotions", 1);
    counters.add(automatic ? "serve.canary.auto_promotions"
                           : "serve.canary.manual_promotions",
                 1);
  } else {
    event.action = LineageAction::kRolledBack;
    counters.add("serve.canary.rollbacks", 1);
    counters.add(automatic ? "serve.canary.auto_rollbacks"
                           : "serve.canary.manual_rollbacks",
                 1);
  }
  candidate_.store(nullptr);
  emit_canary_event(event);
  return true;
}

void ScoringService::mirror_one(const EntityWindows& item,
                                const ScoreResponse& primary) const {
  // An empty item never draws a sample: it must not shift the entity's
  // sampling sequence either.
  if (item.features.empty() || !tracker_.armed()) return;
  const std::optional<std::uint64_t> epoch = tracker_.begin_mirror(item.entity);
  if (!epoch) return;
  const std::shared_ptr<const Snapshot> candidate = candidate_.load();
  if (!candidate) return;
  try {
    const auto found = candidate->entity_lookup.find(item.entity);
    if (found == candidate->entity_lookup.end()) return;
    const std::vector<WindowScore> shadow = score_entity_windows(
        candidate->model, found->second, item.features, item.regimes);

    std::vector<WindowDelta> deltas(shadow.size());
    for (std::size_t i = 0; i < shadow.size(); ++i) {
      deltas[i].cluster = primary.cluster;
      deltas[i].primary_flagged = primary.windows[i].flagged;
      deltas[i].candidate_flagged = shadow[i].flagged;
      deltas[i].state_flip =
          shadow[i].predicted_state != primary.windows[i].predicted_state;
      deltas[i].primary_risk = primary.windows[i].risk;
      deltas[i].candidate_risk = shadow[i].risk;
    }
    auto& counters = core::counters();
    counters.add("serve.canary.mirrored_requests", 1);
    counters.add("serve.canary.mirrored_windows", deltas.size());

    const CanaryTracker::AccumulateResult result =
        tracker_.accumulate(*epoch, deltas);
    if (result.accepted && result.decision) {
      // The scoring thread applies the tracker's verdict; resolve_candidate
      // only republishes the candidate/primary pointers, so the const scoring
      // path stays logically const for every observable response.
      const_cast<ScoringService*>(this)->resolve_candidate(
          *result.decision == CanaryDecision::kPromote, 0, epoch,
          /*automatic=*/true);
    }
  } catch (const std::exception&) {
    // The primary already answered; a broken candidate must surface as a
    // metric, never as a serving failure.
    core::counters().add("serve.canary.mirror_failures", 1);
  }
}

std::vector<ScoreResponse> ScoringService::score_core(
    std::span<const EntityWindows> items) const {
  // One coherent snapshot per call: every window of every item scores
  // against this generation, regardless of concurrent swaps.
  const std::shared_ptr<const Snapshot> snap = snapshot();
  const ServingModel& model = snap->model;

  // Resolve entities and validate what the bundle can check generically
  // (entity names, channel counts) before any work is dispatched. Row-count
  // expectations are detector-specific (MAD-GAN consumes fixed seq_len
  // windows) and surface as PreconditionError from the scoring phase.
  // Grouping is keyed by active entities only (not fleet size): a
  // single-window request against a fleet of thousands must stay O(1).
  std::vector<ScoreResponse> responses(items.size());
  std::unordered_map<std::size_t, std::vector<WindowRef>> per_entity;
  std::size_t total_windows = 0;
  for (std::size_t r = 0; r < items.size(); ++r) {
    const EntityWindows& item = items[r];
    const auto found = snap->entity_lookup.find(item.entity);
    if (found == snap->entity_lookup.end()) {
      throw common::PreconditionError("unknown entity in score request: " + item.entity);
    }
    const std::size_t entity = found->second;
    responses[r].entity_index = entity;
    responses[r].cluster = model.entity_cluster[entity];
    responses[r].generation = model.generation;
    responses[r].windows.resize(item.features.size());
    for (std::size_t w = 0; w < item.features.size(); ++w) {
      GO_EXPECTS(item.features[w]->rows() >= 1);
      GO_EXPECTS(item.features[w]->cols() == model.spec.num_channels);
      per_entity[entity].push_back({r, w});
    }
    total_windows += item.features.size();
  }

  // Entities with traffic shard across the pool (a lone entity runs on this
  // thread); within one entity every window (across all items) goes
  // through a single predict_batch and a single detector score_batch.
  std::vector<const std::pair<const std::size_t, std::vector<WindowRef>>*> active;
  active.reserve(per_entity.size());
  for (const auto& group : per_entity) active.push_back(&group);

  common::parallel_for(*pool_, active.size(), [&](std::size_t a) {
    const std::size_t entity = active[a]->first;
    const std::vector<WindowRef>& refs = active[a]->second;

    // Zero-copy regroup: the group is a pointer/regime view straight into
    // the callers' storage — no window bytes move on the serve hot path.
    std::vector<const nn::Matrix*> features;
    std::vector<data::Regime> regimes;
    features.reserve(refs.size());
    regimes.reserve(refs.size());
    for (const WindowRef& ref : refs) {
      features.push_back(items[ref.item].features[ref.window]);
      regimes.push_back(items[ref.item].regimes[ref.window]);
    }

    const std::vector<WindowScore> scores =
        score_entity_windows(model, entity, features, regimes);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      responses[refs[i].item].windows[refs[i].window] = scores[i];
    }
  });

  auto& counters = core::counters();
  counters.add("serve.requests", items.size());
  counters.add("serve.windows", total_windows);
  counters.add("serve.entity_batches", active.size());

  // Feedback tap: deliver finished responses to the adaptive controller
  // (or any other observer) after all scoring work for this call is done.
  if (const std::shared_ptr<const ScoreObserver> observer = observer_.load()) {
    for (const ScoreResponse& response : responses) (*observer)(response);
  }

  // Canary mirroring runs strictly after the responses are final: the
  // candidate can only read the primary's verdicts, never shape them.
  for (std::size_t r = 0; r < items.size(); ++r) mirror_one(items[r], responses[r]);
  return responses;
}

ScoreResponse ScoringService::score(const ScoreRequest& request) const {
  return score_batch(std::span<const ScoreRequest>(&request, 1)).front();
}

std::vector<ScoreResponse> ScoringService::score_batch(
    std::span<const ScoreRequest> requests) const {
  // Pointer/regime views straight into the request storage, reserved up
  // front so every item's spans stay valid.
  std::size_t total_windows = 0;
  for (const ScoreRequest& request : requests) total_windows += request.windows.size();
  std::vector<const nn::Matrix*> features;
  std::vector<data::Regime> regimes;
  features.reserve(total_windows);
  regimes.reserve(total_windows);
  std::vector<EntityWindows> items;
  items.reserve(requests.size());
  for (const ScoreRequest& request : requests) {
    const std::size_t first = features.size();
    for (const TelemetryWindow& window : request.windows) {
      features.push_back(&window.features);
      regimes.push_back(window.regime);
    }
    const std::size_t count = request.windows.size();
    items.push_back({request.entity,
                     std::span<const nn::Matrix* const>(features).subspan(first, count),
                     std::span<const data::Regime>(regimes).subspan(first, count)});
  }
  return score_core(items);
}

ScoreResponse ScoringService::score_views(const std::string& entity,
                                          std::span<const data::WindowView> views) const {
  // Gather each view exactly once — the single copy on this path; the
  // store segments themselves are never duplicated, and the canary mirror
  // scores these same gathered bytes.
  std::vector<nn::Matrix> gathered(views.size());
  std::vector<const nn::Matrix*> features(views.size());
  std::vector<data::Regime> regimes(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    views[i].gather(gathered[i]);
    features[i] = &gathered[i];
    regimes[i] = views[i].regime();
  }
  const EntityWindows item{entity, features, regimes};
  return std::move(score_core(std::span<const EntityWindows>(&item, 1)).front());
}

}  // namespace goodones::serve
