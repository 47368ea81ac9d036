// The five-step risk-profiling framework (the paper's core contribution),
// end to end and domain-agnostic:
//
//   1. Simulate the evasion attack against each victim's deployed model.
//   2. Quantify instantaneous risk R_t = S * Z_t at every attacked step.
//   3. Assemble per-victim time-series risk profiles.
//   4. Hierarchically cluster the profiles into vulnerability groups
//      (per subset, as the paper does), labeling the group with the lower
//      mean risk "less vulnerable".
//   5. Selectively train anomaly detectors on a strategy's victims and
//      evaluate them on the held-out test data of *all* victims.
//
// Scenario knowledge lives behind core::DomainAdapter (core/domain.hpp):
// the framework asks the adapter for the entity population and the domain
// spec (telemetry schema, thresholds, severity, attack semantics) and never
// names a concrete scenario. Heavy stages are computed lazily and reused
// by every figure read from one framework instance.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "attack/campaign.hpp"
#include "cluster/hierarchical.hpp"
#include "common/thread_pool.hpp"
#include "core/config.hpp"
#include "core/domain.hpp"
#include "core/metrics.hpp"
#include "core/strategy.hpp"
#include "detect/factory.hpp"
#include "predict/registry.hpp"
#include "risk/profile.hpp"

namespace goodones::core {

/// Steps 1-4 outputs, everything the paper's Figs. 3/4/9/10 and Table II need.
struct ProfilingOutputs {
  /// Per-entity attack campaigns on the *training* split (the defender's
  /// own simulation), entity order.
  std::vector<attack::SuccessRates> train_attack_rates;
  std::vector<risk::RiskProfile> profiles;
  /// One dendrogram per clustering subset, in subset order.
  std::vector<cluster::Dendrogram> dendrograms;
  /// Entity indices belonging to each subset, in entity order (the
  /// dendrogram's leaf order).
  std::vector<std::vector<std::size_t>> subset_members;
  VulnerabilityClusters clusters;
  /// Fig. 4: fraction of benign samples in the normal state, per entity.
  std::vector<double> benign_normal_ratio;
};

/// One detector-x-strategy evaluation (step 5).
struct StrategyEvaluation {
  detect::DetectorKind detector = detect::DetectorKind::kKnn;
  Strategy strategy = Strategy::kAllVictims;
  ConfusionMatrix pooled;                   ///< over all test victims
  std::vector<ConfusionMatrix> per_victim;  ///< entity order
  std::size_t train_benign = 0;
  std::size_t train_malicious = 0;
};

/// A detector fitted on one victim subset, with its training-set accounting
/// (the building block behind evaluate_strategy and the serving-path
/// bundle builder, which persists these per vulnerability cluster).
struct TrainedDetector {
  std::unique_ptr<detect::AnomalyDetector> detector;
  std::size_t train_benign = 0;
  std::size_t train_malicious = 0;
};

struct ExperimentResults {
  /// One aggregated entry per detector x strategy (random runs pooled).
  std::vector<StrategyEvaluation> entries;

  /// Lookup; throws PreconditionError if absent.
  const StrategyEvaluation& entry(detect::DetectorKind detector, Strategy strategy) const;
};

class RiskProfilingFramework {
 public:
  /// `domain` supplies the scenario; `config` the experiment tuning. Build
  /// the config through domain->prepare(...) so the domain's semantics are
  /// stamped onto it (see DomainAdapter::prepare).
  RiskProfilingFramework(std::shared_ptr<const DomainAdapter> domain,
                         FrameworkConfig config);
  ~RiskProfilingFramework();

  RiskProfilingFramework(const RiskProfilingFramework&) = delete;
  RiskProfilingFramework& operator=(const RiskProfilingFramework&) = delete;

  const FrameworkConfig& config() const noexcept { return config_; }
  const DomainAdapter& domain() const noexcept { return *domain_; }

  // --- lazily computed stages ---

  /// The domain's monitored entities (telemetry already split train/test).
  const std::vector<EntityData>& entities();

  /// Personalized forecasters, one per entity.
  const predict::ModelRegistry& models();

  /// Steps 1-4.
  const ProfilingOutputs& profiling();

  /// Evaluation campaign (attack on the held-out test split) per entity.
  const std::vector<attack::WindowOutcome>& test_outcomes(std::size_t entity);

  /// Step-1 profiling campaign (attack on the training split) per entity.
  /// Ablation benches re-derive risk profiles from these under alternative
  /// severity schedules and clustering choices.
  const std::vector<attack::WindowOutcome>& profiling_outcomes(std::size_t entity);

  /// Step 5 for the given detectors across all four strategies. The
  /// random strategy's entry pools config().random_runs draws; its
  /// training-set sizes are their means.
  ExperimentResults run_detector_experiments(
      const std::vector<detect::DetectorKind>& kinds);

  /// Step 5 for a single detector x victim subset (building block used by
  /// run_detector_experiments and directly by ablation benches).
  StrategyEvaluation evaluate_strategy(detect::DetectorKind kind,
                                       const std::vector<std::size_t>& train_victims);

  /// Fits a fresh detector of `kind` on the given victims' training
  /// material (benign telemetry + the defender's simulated attack), without
  /// evaluating it. The serving path persists one of these per
  /// vulnerability cluster; evaluate_strategy builds on it.
  TrainedDetector train_detector(detect::DetectorKind kind,
                                 const std::vector<std::size_t>& train_victims);

  /// Validates and canonicalizes an externally-supplied vulnerability
  /// partition (e.g. the online profiler's reassessment) into the exact
  /// representation step 4 emits: every entity index appears exactly once,
  /// both groups sorted ascending. The adaptive serving loop rebuilds
  /// routing tables and retrains per-cluster detectors through this seam,
  /// so online reassignment goes through training-identical cluster
  /// assignment code instead of a parallel implementation. Throws
  /// common::PreconditionError on a partition that misses, duplicates, or
  /// invents entities.
  VulnerabilityClusters rebuild_routing(const VulnerabilityClusters& partition);

  // --- helpers shared with benches/examples ---

  /// The global detector feature scaler (fit across all entities' train data).
  const data::MinMaxScaler& detector_scaler();

  /// Benign train/test windows of one entity, scaled, at the configured
  /// detector stride (window-granularity detectors, i.e. MAD-GAN).
  std::vector<nn::Matrix> benign_train_windows(std::size_t entity);
  std::vector<nn::Matrix> benign_test_windows(std::size_t entity);

  /// Successful adversarial windows (scaled) from the given campaign.
  std::vector<nn::Matrix> malicious_windows(
      const std::vector<attack::WindowOutcome>& outcomes);

  /// Benign train/test telemetry *samples* of one entity — (1 x F) scaled
  /// matrices at the configured stride, where F = channels plus one rolling
  /// context sum per spec().context_channels entry (sample-granularity
  /// detectors, i.e. kNN and OneClassSVM, matching the paper's
  /// per-measurement Fig. 5).
  std::vector<nn::Matrix> benign_train_samples(std::size_t entity);
  std::vector<nn::Matrix> benign_test_samples(std::size_t entity);

  /// The individual manipulated target-channel samples from successful
  /// attacks in the given campaign: one (1 x F) matrix per edited timestep,
  /// scaled.
  std::vector<nn::Matrix> malicious_samples(
      const std::vector<attack::WindowOutcome>& outcomes);

  common::ThreadPool& pool() noexcept { return *pool_; }

 private:
  void ensure_entities();
  void ensure_models();
  void ensure_scaler();
  void ensure_windows();
  void ensure_profiling();
  void ensure_test_outcomes();

  std::shared_ptr<const DomainAdapter> domain_;
  FrameworkConfig config_;
  std::unique_ptr<common::ThreadPool> pool_;

  std::vector<EntityData> entities_;
  std::optional<predict::ModelRegistry> models_;
  std::optional<data::MinMaxScaler> scaler_;
  std::vector<std::vector<data::Window>> train_windows_;  // full stride-1 windows
  std::vector<std::vector<data::Window>> test_windows_;
  std::optional<ProfilingOutputs> profiling_;
  /// Step-1 campaigns on the training split, kept because the defender's
  /// simulated malicious samples double as kNN training data.
  std::vector<std::vector<attack::WindowOutcome>> train_profiling_outcomes_;
  std::vector<std::vector<attack::WindowOutcome>> test_outcomes_;
  bool test_outcomes_ready_ = false;
};

}  // namespace goodones::core
