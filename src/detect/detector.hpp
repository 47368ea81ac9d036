// Anomaly-detector interface shared by kNN, OneClassSVM and MAD-GAN.
//
// Detectors consume telemetry windows (seq_len x channels) in *scaled* units — the
// framework fits one global scaler so all training strategies compare
// fairly. Supervised detectors (kNN) also receive malicious windows from
// the defender's own attack simulation (framework step 1); unsupervised
// detectors ignore them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/matrix.hpp"

namespace goodones::detect {

/// What one detector input represents. The paper's kNN and OneClassSVM
/// inspect individual telemetry samples (Fig. 5 marks single measurements
/// as TP/FN); MAD-GAN consumes whole multivariate windows (seq_len x
/// signals). The framework assembles training and evaluation sets
/// accordingly.
enum class InputGranularity : std::uint8_t { kSample, kWindow };

class AnomalyDetector {
 public:
  virtual ~AnomalyDetector() = default;

  /// Granularity of the matrices this detector expects. Sample-level
  /// detectors receive (1 x channels) matrices; window-level detectors
  /// receive (seq_len x channels).
  virtual InputGranularity granularity() const = 0;

  /// Trains the detector. `benign` must be non-empty; `malicious` may be
  /// empty (unsupervised detectors never read it).
  virtual void fit(const std::vector<nn::Matrix>& benign,
                   const std::vector<nn::Matrix>& malicious) = 0;

  /// Anomaly score, higher = more anomalous. Scale is detector-specific;
  /// only the induced ranking and `flags` are comparable across detectors.
  virtual double anomaly_score(const nn::Matrix& window) const = 0;

  /// Final decision: true = flagged as malicious. Requires a prior fit.
  virtual bool flags(const nn::Matrix& window) const = 0;

  /// Anomaly scores for a batch of windows, element i corresponding to
  /// windows[i]. The contract is strict: scores must be BITWISE identical to
  /// calling anomaly_score(windows[i]) one by one — batching is an execution
  /// strategy, never a semantic change — so callers (the serving path makes
  /// one score_batch call per entity per request) may mix the two paths
  /// freely. The default loops anomaly_score; override when amortizing work
  /// across the batch pays (MAD-GAN shares one batched latent inversion).
  virtual std::vector<double> score_batch(std::span<const nn::Matrix> windows) const {
    std::vector<double> scores;
    scores.reserve(windows.size());
    for (const nn::Matrix& window : windows) scores.push_back(anomaly_score(window));
    return scores;
  }

  /// Final decision given `score` = anomaly_score(window), for hot paths
  /// that need both the score and the verdict (the serving path would
  /// otherwise pay MAD-GAN's latent inversion twice per window). Must
  /// agree with flags(window). The default recomputes via flags() —
  /// always correct; the built-ins override it with their threshold rule.
  virtual bool flags_from_score(const nn::Matrix& window, double score) const {
    (void)score;
    return flags(window);
  }

  virtual std::string name() const = 0;

  /// Flattened feature width of the inputs this fitted detector expects
  /// (columns for window-level detectors, flattened length for sample-level
  /// ones); 0 = unknown/unfitted. Lets loaders cross-check a deserialized
  /// detector against the domain schema it is about to serve.
  virtual std::size_t input_width() const noexcept { return 0; }

  /// Persists the fitted state (including the scoring-relevant config) so a
  /// reloaded detector scores bit-identically without refitting. Writers
  /// open with a per-kind tag, so loading the wrong detector kind fails
  /// loudly instead of misinterpreting bytes. The default throws
  /// common::PreconditionError: custom detectors opt into persistence by
  /// overriding both methods (all three built-ins do).
  virtual void save(std::ostream& out) const;

  /// Restores state written by save() of the same detector kind. Throws
  /// common::SerializationError on truncation, kind/tag mismatch or shape
  /// mismatch, leaving the detector untouched.
  virtual void load(std::istream& in);
};

}  // namespace goodones::detect
