// Persistent model registry for the serving path.
//
// The paper's end state is a deployed defense: detectors selectively
// trained on the less-vulnerable cluster score live telemetry, they do not
// retrain per run. The registry persists everything the scoring path needs
// as one versioned artifact in core::cache's artifact directory — the
// forecaster fleet (architecture + scaler + params), the detector feature
// scaler, the per-cluster detectors (kNN reference set / OCSVM support
// vectors / MAD-GAN nets), the entity -> vulnerability-cluster routing
// table and the domain spec — keyed by domain + config fingerprint +
// detector kind + bundle generation, so a trained BGMS or synthtel
// pipeline round-trips to disk and back without retraining.
//
// Generations are the adaptive serving loop's unit of publication: the
// offline pipeline emits generation 0, and every online refresh (the
// paper's Appendix-D iterative reassessment, driven by
// serve::AdaptiveController) publishes the rebuilt bundle as the next
// generation under the same base key. latest() resolves the newest
// generation so a restarted server resumes from the last published state.
// The controller's own profiling state persists alongside the bundles
// (save_profiler/load_profiler), keyed generation-agnostically.
//
// Every load failure (truncation, bad magic/version, shape mismatch, stale
// config fingerprint) throws common::SerializationError; a half-loaded
// model is never returned.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/domain.hpp"
#include "core/framework.hpp"
#include "data/scaler.hpp"
#include "detect/factory.hpp"
#include "predict/bilstm_forecaster.hpp"
#include "risk/online.hpp"

namespace goodones::serve {

/// Which vulnerability cluster an entity routes to (the paper's step-5
/// partition; indexes ServingModel::cluster_detectors).
enum class Cluster : std::uint8_t { kLessVulnerable = 0, kMoreVulnerable = 1 };

/// The complete scoring-path bundle, decoupled from the training pipeline:
/// load one of these and score live telemetry with no framework, no
/// entity generation and no retraining.
struct ServingModel {
  /// Cache key: domain (name or name-variant) + fingerprint of the
  /// training config. A model must never serve a config it was not
  /// trained under — load() enforces this.
  std::string domain_key;
  std::uint64_t fingerprint = 0;

  /// Bundle generation: 0 = the offline pipeline's output; each adaptive
  /// refresh publishes generation + 1. Scoring responses carry the serving
  /// generation so every verdict is attributable to exactly one bundle.
  std::uint64_t generation = 0;

  /// The domain's static semantics (telemetry schema, thresholds,
  /// severity, context channels) — everything feature assembly and risk
  /// weighting need at scoring time.
  core::DomainSpec spec;

  detect::DetectorKind detector_kind = detect::DetectorKind::kKnn;

  /// Monitored entities in training order; requests address entities by
  /// these names.
  std::vector<std::string> entity_names;
  /// Per-entity vulnerability cluster (entity order).
  std::vector<Cluster> entity_cluster;

  /// The global detector feature scaler the pipeline fit across entities.
  data::MinMaxScaler detector_scaler;

  /// Personalized forecasters, entity order (each carries its own scaler).
  std::vector<predict::BiLstmForecaster> forecasters;

  /// One detector per cluster, indexed by Cluster. Both are trained on
  /// their own cluster's victims, so serving can score an entity with its
  /// cluster's detector (and report the paper's preferred less-vulnerable
  /// detector for entities in the more-vulnerable group).
  std::array<std::unique_ptr<detect::AnomalyDetector>, 2> cluster_detectors;

  /// Index of a named entity; throws common::PreconditionError if unknown.
  std::size_t entity_index(std::string_view name) const;

  const detect::AnomalyDetector& detector_for(std::size_t entity) const;
};

/// Trains (or reuses) everything in `framework` and assembles the serving
/// bundle: forecaster fleet, per-cluster detectors of `kind`, routing table,
/// scaler and spec. Heavy stages already computed on the framework are
/// reused, not recomputed. Publishes as generation 0.
ServingModel build_serving_model(core::RiskProfilingFramework& framework,
                                 detect::DetectorKind kind);

/// Rebuilds the bundle for an explicitly-supplied vulnerability partition —
/// the adaptive loop's refresh path. The partition is canonicalized through
/// framework.rebuild_routing (training-identical assignment code) and both
/// cluster detectors are retrained on their new victim sets through the
/// train_detector seam; the result is stamped with `generation`.
ServingModel build_serving_model(core::RiskProfilingFramework& framework,
                                 detect::DetectorKind kind,
                                 const core::VulnerabilityClusters& partition,
                                 std::uint64_t generation);

/// Deep copy via an in-memory serialization round-trip (detectors and
/// forecasters only expose stream persistence). The clone scores
/// bitwise-identically — this is what routing-only refreshes build on.
ServingModel clone_serving_model(const ServingModel& model);

/// A mesh shard's bundle: the model restricted to `entities` (a subset of
/// entity_names, kept in TRAINING order regardless of the order given).
/// Forecasters, cluster routing and detectors carry over untouched, so a
/// slice scores its entities bitwise-identically to the full bundle — only
/// ServingModel::entity_index values are slice-local. The slice's
/// domain_key gains a deterministic "#slice-<hash of member set>" suffix so
/// slices and the full bundle never collide in a shared ModelRegistry.
/// Throws common::PreconditionError on an empty, unknown or duplicate name.
ServingModel slice_serving_model(const ServingModel& model,
                                 const std::vector<std::string>& entities);

/// Addresses one persisted serving bundle.
struct RegistryKey {
  std::string domain_key;
  std::uint64_t fingerprint = 0;
  detect::DetectorKind detector_kind = detect::DetectorKind::kKnn;
  std::uint64_t generation = 0;
};

/// Derives the registry key a framework's serving bundle persists under
/// (generation 0; adaptive refreshes bump RegistryKey::generation).
RegistryKey registry_key(const core::RiskProfilingFramework& framework,
                         detect::DetectorKind kind);

/// The key `model` persists under: its domain, fingerprint, detector kind
/// and generation.
RegistryKey registry_key(const ServingModel& model);

/// One promotion-lineage record: what happened to a candidate generation
/// and which primary it was measured against. The lineage file is the
/// audit trail that keeps every served verdict bitwise-replayable — it
/// names, for any point in time, exactly which persisted generation was
/// primary and how the transitions between generations were decided.
enum class LineageAction : std::uint32_t {
  kInstalled = 0,   ///< entered as canary candidate
  kPromoted = 1,    ///< became the primary
  kRolledBack = 2,  ///< dropped; the primary kept serving
};

struct LineageEvent {
  std::uint64_t generation = 0;          ///< the candidate generation
  std::uint64_t primary_generation = 0;  ///< primary at the time of the event
  LineageAction action = LineageAction::kInstalled;
  std::uint64_t mirrored_windows = 0;    ///< canary evidence behind the event
};

class ModelRegistry {
 public:
  /// `root` defaults to <artifacts>/models (see core::artifacts_dir()).
  /// Opening a registry sweeps STALE orphaned "*.bin.tmp.*" files left
  /// behind by writers that crashed between temp-write and atomic rename
  /// (an age threshold protects a peer's save that is in flight right
  /// now); live artifacts are never touched.
  explicit ModelRegistry();
  explicit ModelRegistry(std::filesystem::path root);

  const std::filesystem::path& root() const noexcept { return root_; }

  /// File a key maps to (exists or not).
  std::filesystem::path path_for(const RegistryKey& key) const;

  bool contains(const RegistryKey& key) const;

  /// Persists the bundle under its own key (including its generation);
  /// atomic (write to temp file, rename into place) so readers never
  /// observe a half-written artifact.
  void save(const ServingModel& model) const;

  /// Loads the bundle for `key`. Throws common::SerializationError when the
  /// artifact is missing, truncated, has a bad magic/version, carries
  /// mismatched shapes, or its stored fingerprint disagrees with the key
  /// (stale artifact).
  ServingModel load(const RegistryKey& key) const;

  /// Newest published generation for `key`'s (domain, fingerprint, kind) —
  /// the key's own generation field is ignored. nullopt when no generation
  /// of the bundle has been published.
  std::optional<RegistryKey> latest(const RegistryKey& key) const;

  /// All artifact files currently in the registry, sorted by name.
  std::vector<std::filesystem::path> list() const;

  // --- adaptive-controller state --------------------------------------------

  /// Persists the online profiler's state for `key` (generation-agnostic:
  /// profiling evidence spans bundle generations). Atomic like save().
  void save_profiler(const RegistryKey& key, const risk::OnlineRiskProfiler& profiler) const;

  /// True when profiler state has been persisted for `key`.
  bool contains_profiler(const RegistryKey& key) const;

  /// Restores profiler state saved under `key` into `profiler` (which must
  /// track the same victim roster). Throws common::SerializationError on a
  /// missing/corrupt artifact or roster mismatch.
  void load_profiler(const RegistryKey& key, risk::OnlineRiskProfiler& profiler) const;

  // --- promotion lineage ----------------------------------------------------

  /// Appends one lineage event for `key`'s (domain, fingerprint, kind) —
  /// generation-agnostic like the profiler state, since lineage spans
  /// generations by definition. Atomic rewrite of the lineage artifact.
  void append_lineage(const RegistryKey& key, const LineageEvent& event) const;

  /// True when lineage has been recorded for `key`.
  bool contains_lineage(const RegistryKey& key) const;

  /// All lineage events for `key` in append order. Throws
  /// common::SerializationError on a missing or corrupt artifact.
  std::vector<LineageEvent> load_lineage(const RegistryKey& key) const;

 private:
  std::filesystem::path profiler_path_for(const RegistryKey& key) const;
  std::filesystem::path lineage_path_for(const RegistryKey& key) const;
  void sweep_orphaned_tmp_files() const;

  std::filesystem::path root_;
};

const char* to_string(Cluster cluster) noexcept;

}  // namespace goodones::serve
