// Training and lookup of a domain's model fleet: one personalized
// forecaster per monitored entity plus one aggregate model trained on data
// pooled across all entities (the two model types of Rubin-Falcone et al.
// that the paper attacks).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "data/timeseries.hpp"
#include "predict/bilstm_forecaster.hpp"

namespace goodones::predict {

struct RegistryConfig {
  ForecasterConfig forecaster;
  data::WindowConfig window;
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
  const BiLstmForecaster& aggregate() const;
  std::size_t num_personalized() const noexcept { return personalized_.size(); }

  /// Trains every model on the entities' training series, read in place
  /// (`names` label the log lines; pass one per series). The aggregate and
  /// the personalized models train in parallel on `pool`, the aggregate
  /// (the longest task) first. Artifacts are byte-identical for any pool
  /// size: per-model seeds, and no state shared between models.
  static ModelRegistry train(const std::vector<const data::TelemetrySeries*>& train_series,
                             const std::vector<std::string>& names,
                             const RegistryConfig& config, common::ThreadPool& pool);

 private:
  std::vector<std::unique_ptr<BiLstmForecaster>> personalized_;
  std::unique_ptr<BiLstmForecaster> aggregate_;
};

}  // namespace goodones::predict
