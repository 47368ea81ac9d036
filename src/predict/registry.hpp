// Training and lookup of a domain's model fleet: one personalized
// forecaster per monitored entity, the model the defense profiles and
// serves. The aggregate model trained on data pooled across all entities
// (the other model type of Rubin-Falcone et al. that the paper attacks, in
// its Appendix A) is trained on demand by train_aggregate.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "data/timeseries.hpp"
#include "data/window.hpp"
#include "predict/bilstm_forecaster.hpp"

namespace goodones::predict {

struct RegistryConfig {
  ForecasterConfig forecaster;
  std::size_t train_window_step = 2;      ///< subsampling stride for training
  std::size_t aggregate_window_step = 12; ///< heavier stride for the pooled model
  /// Target-channel scaling, stamped by the domain adapter: all models pin
  /// this channel to [target_min, target_max] so risk is comparable across
  /// entities regardless of observed extremes.
  std::size_t target_channel = 0;
  double target_min = 0.0;
  double target_max = 1.0;
};

/// The trained fleet. Personalized models are indexed in entity order.
class ModelRegistry {
 public:
  ModelRegistry() = default;

  const BiLstmForecaster& personalized(std::size_t entity_index) const;
  std::size_t num_personalized() const noexcept { return personalized_.size(); }

  /// Trains one personalized model per entity on its training series, read
  /// in place and cut at `window`'s geometry (`names` label the log lines;
  /// pass one per series). Task i of one parallel_for on `pool` trains
  /// entity i. Artifacts are byte-identical for any pool size: per-model
  /// seeds, and no state shared between models.
  static ModelRegistry train(const std::vector<const data::TelemetrySeries*>& train_series,
                             const std::vector<std::string>& names,
                             const data::WindowConfig& window, const RegistryConfig& config,
                             common::ThreadPool& pool);

 private:
  std::vector<std::unique_ptr<BiLstmForecaster>> personalized_;
};

/// Trains the aggregate model on windows pooled across every entity's
/// training series at `window`'s geometry and the config's aggregate
/// stride, with a scaler fitted on all of them.
BiLstmForecaster train_aggregate(const std::vector<const data::TelemetrySeries*>& train_series,
                                 const data::WindowConfig& window, const RegistryConfig& config);

}  // namespace goodones::predict
