#include "data/window.hpp"

#include "common/error.hpp"

namespace goodones::data {

std::vector<Window> make_windows(const TelemetrySeries& series, const WindowConfig& config) {
  GO_EXPECTS(config.seq_len > 0);
  GO_EXPECTS(config.step > 0);
  const std::size_t steps = series.steps();
  const std::size_t channels = series.num_channels();
  std::vector<Window> windows;
  if (steps < config.seq_len + config.horizon) return windows;

  const std::size_t last_start = steps - config.seq_len - config.horizon;
  windows.reserve(last_start / config.step + 1);
  for (std::size_t start = 0; start <= last_start; start += config.step) {
    Window w;
    w.features = nn::Matrix(config.seq_len, channels);
    for (std::size_t t = 0; t < config.seq_len; ++t) {
      for (std::size_t c = 0; c < channels; ++c) {
        w.features(t, c) = series.values(start + t, c);
      }
    }
    w.end_index = start + config.seq_len - 1;
    const std::size_t target_index = w.end_index + config.horizon;
    w.target_value = series.true_target[target_index];
    w.regime = series.regimes[target_index];
    windows.push_back(std::move(w));
  }
  return windows;
}

std::vector<double> flatten(const nn::Matrix& features) {
  std::vector<double> out;
  out.reserve(features.size());
  for (std::size_t r = 0; r < features.rows(); ++r) {
    const auto row = features.row(r);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

}  // namespace goodones::data
