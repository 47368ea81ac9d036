// Interface of the victim system's main prediction DNN.
//
// The deployed prediction algorithm is confidential in real systems; each
// domain approximates it with a trained surrogate (the BGMS case study uses
// the bidirectional-LSTM forecaster of Rubin-Falcone et al.). Attack and
// risk-profiling code only depend on this interface, so other model
// families can be swapped in.
#pragma once

#include <span>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/simd.hpp"

namespace goodones::predict {

class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Predicts the target signal (raw units) `horizon` steps past the window
  /// end. `raw_features` is a (seq_len x channels) telemetry window in raw
  /// units. Must be thread-safe for concurrent callers.
  virtual double predict(const nn::Matrix& raw_features) const = 0;

  /// Predicts a batch of windows at once; element i corresponds to
  /// *raw_windows[i]. The batch arrives as pointers into caller-owned
  /// storage (scoring-service request groups, column-store window gathers,
  /// campaign probe pools), so no window is copied to form it. Greedy
  /// evasion searches and region-based defenses probe hundreds of
  /// near-identical windows — models that can amortize work across the batch
  /// (shared-prefix recurrent state, packed GEMMs) override this; the default
  /// simply loops over predict(). Results must match the scalar path, and
  /// implementations must be thread-safe for concurrent callers.
  virtual std::vector<double> predict_batch(
      std::span<const nn::Matrix* const> raw_windows) const {
    std::vector<double> out;
    out.reserve(raw_windows.size());
    for (const nn::Matrix* w : raw_windows) out.push_back(predict(*w));
    return out;
  }

  /// The same call with a numeric mode, which it ignores: nn::Precision has
  /// one value. Kept only for the benchmark's serving workload, which names
  /// it (see nn::Precision).
  std::vector<double> predict_batch(std::span<const nn::Matrix* const> raw_windows,
                                    nn::Precision /*precision*/) const {
    return predict_batch(raw_windows);
  }

  /// predict_batch over contiguous windows: builds the pointer span and
  /// forwards, so every model answers both forms through one override.
  std::vector<double> predict_batch(std::span<const nn::Matrix> raw_windows) const {
    std::vector<const nn::Matrix*> ptrs;
    ptrs.reserve(raw_windows.size());
    for (const nn::Matrix& w : raw_windows) ptrs.push_back(&w);
    return predict_batch(std::span<const nn::Matrix* const>(ptrs));
  }
};

}  // namespace goodones::predict
