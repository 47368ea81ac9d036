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
  /// raw_windows[i]. Greedy evasion searches and region-based defenses probe
  /// hundreds of near-identical windows — models that can amortize work
  /// across the batch (shared-prefix recurrent state, packed GEMMs) override
  /// this; the default simply loops over predict(). Results must match the
  /// scalar path. Must be thread-safe for concurrent callers.
  virtual std::vector<double> predict_batch(std::span<const nn::Matrix> raw_windows) const {
    std::vector<double> out;
    out.reserve(raw_windows.size());
    for (const nn::Matrix& w : raw_windows) out.push_back(predict(w));
    return out;
  }

  /// predict_batch with an explicit per-call numeric lane. Models that
  /// support the kFast approximation lane honor `precision` for this call
  /// only; the base default ignores it and runs the exact loop. Callers that probe in a
  /// fast lane re-verify their final answers through predict() /
  /// predict_batch(), which always stay exact.
  virtual std::vector<double> predict_batch(std::span<const nn::Matrix> raw_windows,
                                            nn::Precision /*precision*/) const {
    return predict_batch(raw_windows);
  }

  /// Zero-copy batched inference: the same contract as the value-span
  /// overloads, but the batch arrives as pointers into caller-owned storage
  /// (scoring-service request groups, column-store window gathers). Element
  /// i corresponds to *raw_windows[i]; results must match the scalar path.
  /// The default loops predict(); models with a real batch path override
  /// this alongside the value-span overloads.
  virtual std::vector<double> predict_batch(
      std::span<const nn::Matrix* const> raw_windows) const {
    std::vector<double> out;
    out.reserve(raw_windows.size());
    for (const nn::Matrix* w : raw_windows) out.push_back(predict(*w));
    return out;
  }

  /// Pointer-span batch with an explicit per-call numeric lane (see the
  /// value-span precision overload for lane semantics).
  virtual std::vector<double> predict_batch(std::span<const nn::Matrix* const> raw_windows,
                                            nn::Precision /*precision*/) const {
    return predict_batch(raw_windows);
  }

  /// Gradient of the prediction w.r.t. each raw input feature
  /// (seq_len x channels). Drives the gradient-guided attack variant.
  virtual nn::Matrix input_gradient(const nn::Matrix& raw_features) const = 0;
};

}  // namespace goodones::predict
