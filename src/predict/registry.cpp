#include "predict/registry.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"
#include "data/window.hpp"

namespace goodones::predict {

const BiLstmForecaster& ModelRegistry::personalized(std::size_t entity_index) const {
  GO_EXPECTS(entity_index < personalized_.size());
  return *personalized_[entity_index];
}

const BiLstmForecaster& ModelRegistry::aggregate() const {
  GO_EXPECTS(aggregate_ != nullptr);
  return *aggregate_;
}

ModelRegistry ModelRegistry::train(const std::vector<const data::TelemetrySeries*>& train_series,
                                   const std::vector<std::string>& names,
                                   const RegistryConfig& config, common::ThreadPool& pool) {
  GO_EXPECTS(!train_series.empty());
  GO_EXPECTS(names.size() == train_series.size());
  GO_EXPECTS(config.target_max > config.target_min);
  for (const auto* series : train_series) GO_EXPECTS(series != nullptr);
  ModelRegistry registry;
  registry.personalized_.resize(train_series.size());

  // Per-entity training windows (subsampled), shared by both model kinds.
  data::WindowConfig train_window = config.window;
  train_window.step = config.train_window_step;

  std::vector<std::vector<data::Window>> entity_windows(train_series.size());
  common::parallel_for(pool, train_series.size(), [&](std::size_t i) {
    entity_windows[i] = data::make_windows(*train_series[i], train_window);
  });

  // Aggregate model: pool windows across all entities with a larger stride.
  data::WindowConfig agg_window = config.window;
  agg_window.step = config.aggregate_window_step;
  std::vector<data::Window> pooled;
  data::MinMaxScaler agg_scaler;
  for (std::size_t i = 0; i < train_series.size(); ++i) {
    auto windows = data::make_windows(*train_series[i], agg_window);
    pooled.insert(pooled.end(), std::make_move_iterator(windows.begin()),
                  std::make_move_iterator(windows.end()));
    agg_scaler.partial_fit(train_series[i]->values);
  }
  agg_scaler.set_column_range(config.target_channel, config.target_min, config.target_max);

  // Every model trains in one parallel_for; each derives its own seed, so
  // results do not depend on scheduling. The aggregate, the longest task,
  // is task 0 and is dequeued first; task i + 1 is entity i's personalized
  // model.
  const auto model_config = [&config](std::size_t seed_offset) {
    ForecasterConfig fc = config.forecaster;
    fc.seed = config.forecaster.seed * 1000 + seed_offset;
    fc.target_channel = config.target_channel;
    return fc;
  };
  common::parallel_for(pool, train_series.size() + 1, [&](std::size_t task) {
    if (task == 0) {
      auto model = std::make_unique<BiLstmForecaster>(model_config(999), agg_scaler);
      const double loss = model->train(pooled);
      common::log_info("aggregate model trained on ", pooled.size(),
                       " windows, final MSE(norm)=", loss);
      registry.aggregate_ = std::move(model);
      return;
    }
    const std::size_t i = task - 1;
    auto model = std::make_unique<BiLstmForecaster>(
        model_config(i), fit_forecaster_scaler(train_series[i]->values, config.target_channel,
                                               config.target_min, config.target_max));
    const double loss = model->train(entity_windows[i]);
    common::log_info("personalized model ", names[i], " trained, final MSE(norm)=", loss);
    registry.personalized_[i] = std::move(model);
  });
  return registry;
}

}  // namespace goodones::predict
