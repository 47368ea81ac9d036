// Sliding-window extraction for forecasting and anomaly detection.
//
// Default geometry follows the paper's MAD-GAN configuration: sequence
// length 12, step 1, with the forecasting target `horizon` steps past the
// window end. Each window also records the operating regime at prediction
// time, which decides the attack scenario and the diagnostic threshold.
#pragma once

#include <cstddef>
#include <vector>

#include "data/labels.hpp"
#include "data/scaler.hpp"
#include "data/timeseries.hpp"
#include "nn/matrix.hpp"

namespace goodones::data {

/// Default window geometry (paper Appendix B + 30-minute forecast horizon).
inline constexpr std::size_t kDefaultSeqLen = 12;
inline constexpr std::size_t kDefaultHorizon = 6;

struct Window {
  nn::Matrix features;        ///< seq_len x channels, raw (unscaled) units
  double target_value = 0;    ///< true target signal at end+horizon (raw units)
  std::size_t end_index = 0;  ///< index of the window's last step in the series
  Regime regime = Regime::kBaseline;  ///< regime at prediction time
};

struct WindowConfig {
  std::size_t seq_len = kDefaultSeqLen;
  std::size_t step = 1;
  std::size_t horizon = kDefaultHorizon;
};

/// Extracts forecasting windows: every `step` positions, a (seq_len x C)
/// feature block plus the target signal `horizon` steps later. Windows
/// whose target would fall past the end of the series are dropped.
std::vector<Window> make_windows(const TelemetrySeries& series, const WindowConfig& config);

/// Flattens a window's features row-major into a single vector of
/// seq_len * channels values (kNN / OneClassSVM input).
std::vector<double> flatten(const nn::Matrix& features);

}  // namespace goodones::data
