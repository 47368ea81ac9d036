// The evasion attack itself: manipulate a telemetry window's target channel
// so the forecaster predicts a harmful high state. Standalone substitute for
// the URET toolkit's greedy input-transformation search.
#pragma once

#include <span>
#include <vector>

#include "attack/config.hpp"
#include "data/window.hpp"
#include "nn/matrix.hpp"
#include "predict/forecaster.hpp"

namespace goodones::attack {

struct AttackResult {
  bool success = false;
  std::size_t edits = 0;              ///< number of target-channel values rewritten
  double benign_prediction = 0.0;     ///< model output on the clean window
  double adversarial_prediction = 0.0;///< model output on the final window
  nn::Matrix adversarial_features;    ///< the manipulated window (raw units)
  /// Forecaster evaluations spent on this window: the benign baseline, every
  /// candidate probe, and the exact re-verification of the final window when
  /// probes ran in an approximation lane. The search probes whole candidate
  /// sets, so the count depends only on the window, the model's outputs and
  /// the config — never on how windows are batched or sharded.
  std::size_t probes = 0;
};

class EvasionAttack {
 public:
  explicit EvasionAttack(AttackConfig config);

  const AttackConfig& config() const noexcept { return config_; }

  /// Attacks one window against `model`: attack_windows() over a span of
  /// one. The window's regime selects the constraint box and the success
  /// threshold. Thread-safe.
  AttackResult attack_window(const predict::Forecaster& model,
                             const data::Window& window) const;

  /// Attacks every window; results[i] answers *windows[i]. The searches of
  /// all windows advance in lockstep, merging every active window's
  /// candidate probes into one predict_batch call per round. Each window's
  /// outcome is the same whatever span it arrives in. Thread-safe.
  void attack_windows(const predict::Forecaster& model,
                      std::span<const data::Window* const> windows,
                      std::span<AttackResult> results) const;

 private:
  /// Candidate target values inside the box for the given regime. `jitter`
  /// in [0, 1) shifts the whole grid by a fraction of its spacing: derived
  /// deterministically per window, it prevents manipulated values from
  /// collapsing onto a handful of exact grid points across windows (which
  /// would hand detectors unrealistic exact-match evidence).
  std::vector<double> candidate_values(data::Regime regime, double jitter) const;

  /// Deterministic per-window jitter in [0, 1) from the feature bytes.
  static double window_jitter(const data::Window& window) noexcept;

  /// True when probes run in an approximation lane, i.e. finished searches
  /// must have their reported numbers re-verified through the exact model.
  bool probes_need_verification() const noexcept;

  /// Exact re-verification of finished searches: re-scores every final
  /// window as one exact predict_batch and re-derives success against each
  /// regime's threshold. No-op unless probes_need_verification().
  void verify_results(const predict::Forecaster& model,
                      std::span<const data::Window* const> windows,
                      std::span<AttackResult> results) const;

  AttackConfig config_;
};

}  // namespace goodones::attack
