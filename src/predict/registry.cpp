#include "predict/registry.hpp"

#include "common/error.hpp"
#include "common/logging.hpp"

namespace goodones::predict {

namespace {

void expect_trainable(const std::vector<const data::TelemetrySeries*>& train_series,
                      const RegistryConfig& config) {
  GO_EXPECTS(!train_series.empty());
  GO_EXPECTS(config.target_max > config.target_min);
  for (const auto* series : train_series) GO_EXPECTS(series != nullptr);
}

/// Each model derives its own seed from the fleet seed, so results do not
/// depend on which models train or in which order.
ForecasterConfig model_config(const RegistryConfig& config, std::size_t seed_offset) {
  ForecasterConfig fc = config.forecaster;
  fc.seed = config.forecaster.seed * 1000 + seed_offset;
  fc.target_channel = config.target_channel;
  return fc;
}

}  // namespace

const BiLstmForecaster& ModelRegistry::personalized(std::size_t entity_index) const {
  GO_EXPECTS(entity_index < personalized_.size());
  return *personalized_[entity_index];
}

ModelRegistry ModelRegistry::train(const std::vector<const data::TelemetrySeries*>& train_series,
                                   const std::vector<std::string>& names,
                                   const data::WindowConfig& window, const RegistryConfig& config,
                                   common::ThreadPool& pool) {
  expect_trainable(train_series, config);
  GO_EXPECTS(names.size() == train_series.size());
  ModelRegistry registry;
  registry.personalized_.resize(train_series.size());

  data::WindowConfig train_window = window;
  train_window.step = config.train_window_step;
  common::parallel_for(pool, train_series.size(), [&](std::size_t i) {
    auto model = std::make_unique<BiLstmForecaster>(
        model_config(config, i),
        fit_forecaster_scaler(train_series[i]->values, config.target_channel,
                              config.target_min, config.target_max));
    const double loss = model->train(data::make_windows(*train_series[i], train_window));
    common::log_info("personalized model ", names[i], " trained, final MSE(norm)=", loss);
    registry.personalized_[i] = std::move(model);
  });
  return registry;
}

BiLstmForecaster train_aggregate(const std::vector<const data::TelemetrySeries*>& train_series,
                                 const data::WindowConfig& window, const RegistryConfig& config) {
  expect_trainable(train_series, config);
  data::WindowConfig agg_window = window;
  agg_window.step = config.aggregate_window_step;
  std::vector<data::Window> pooled;
  data::MinMaxScaler agg_scaler;
  for (const auto* series : train_series) {
    auto windows = data::make_windows(*series, agg_window);
    pooled.insert(pooled.end(), std::make_move_iterator(windows.begin()),
                  std::make_move_iterator(windows.end()));
    agg_scaler.partial_fit(series->values);
  }
  agg_scaler.set_column_range(config.target_channel, config.target_min, config.target_max);

  BiLstmForecaster model(model_config(config, 999), agg_scaler);
  const double loss = model.train(pooled);
  common::log_info("aggregate model trained on ", pooled.size(),
                   " windows, final MSE(norm)=", loss);
  return model;
}

}  // namespace goodones::predict
