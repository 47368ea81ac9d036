// The evasion attack itself: manipulate a telemetry window's target channel
// so the forecaster predicts a harmful high state. Standalone substitute for
// the URET toolkit's greedy/beam input-transformation search.
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
  /// Forecaster evaluations spent on this window (benign baseline plus every
  /// candidate probe). Throughput accounting; the batched path may request
  /// more probes than the early-exiting scalar path, so parity checks
  /// compare the decision fields above, not this counter.
  std::size_t probes = 0;
};

/// Stepwise state machine of one position-ordered greedy search (the
/// kOrderedGreedy / kGradientGuided decision logic, extracted so a campaign
/// can advance MANY windows' searches in lockstep and merge their candidate
/// probes into one predict_batch call per round). The single source of truth
/// for the batched decision path: EvasionAttack's own batched branch drives
/// exactly this object, so lockstep and per-window runs decide identically.
class OrderedGreedySearch {
 public:
  /// `step_order` is the edit-position order, `values` the ascending
  /// candidate grid, `benign_prediction` the model output on the clean
  /// window (already counted as one probe).
  OrderedGreedySearch(const AttackConfig& config, const data::Window& window,
                      std::vector<std::size_t> step_order, std::vector<double> values,
                      double benign_prediction);

  bool done() const noexcept { return done_; }
  /// Timestep the next consume() call decides. Only valid while !done().
  std::size_t pending_row() const noexcept { return order_[k_]; }
  /// The current (partially edited) window candidate probes must copy.
  const nn::Matrix& features() const noexcept { return result_.adversarial_features; }
  const std::vector<double>& values() const noexcept { return values_; }
  /// Applies one position's decision given the candidate predictions (in
  /// values() order, one per candidate) and advances to the next position.
  void consume(std::span<const double> candidate_preds);
  /// The final outcome; only meaningful once done().
  AttackResult take_result() { return std::move(result_); }

 private:
  std::size_t target_channel_;
  double stealth_fraction_;
  double threshold_;
  std::vector<std::size_t> order_;
  std::vector<double> values_;
  std::size_t budget_;
  std::size_t k_ = 0;
  bool done_ = false;
  AttackResult result_;
};

class EvasionAttack {
 public:
  explicit EvasionAttack(AttackConfig config);

  const AttackConfig& config() const noexcept { return config_; }

  /// Attacks one window against `model`. The window's regime selects the
  /// constraint box and the success threshold. Thread-safe.
  AttackResult attack_window(const predict::Forecaster& model,
                             const data::Window& window) const;

  /// Builds the stepwise search state for this window (valid only for the
  /// position-ordered searches, kOrderedGreedy / kGradientGuided). The
  /// cross-window campaign driver constructs one per shard window and
  /// advances them in lockstep.
  OrderedGreedySearch make_search(const predict::Forecaster& model,
                                  const data::Window& window,
                                  double benign_prediction) const;

  /// Evaluates probe windows in the configured probe lane
  /// (config().probe_precision). Every batched candidate probe — per-window
  /// and campaign-lockstep alike — goes through here.
  std::vector<double> probe_batch(const predict::Forecaster& model,
                                  std::span<const nn::Matrix> probes) const;

  /// True when batched probes run in an approximation lane, i.e. finished
  /// searches must have their reported numbers re-verified through the
  /// exact model.
  bool probes_need_verification() const noexcept;

  /// Exact re-verification of a finished search: recomputes the adversarial
  /// prediction with predict() (always full double) and re-derives success
  /// against the regime's threshold. No-op unless probes_need_verification().
  void verify_result(const predict::Forecaster& model, data::Regime regime,
                     AttackResult& result) const;

 private:
  /// Edit-position order of the position-ordered searches: back-to-front
  /// for kOrderedGreedy, |dPrediction/dInput|-sorted for kGradientGuided.
  std::vector<std::size_t> step_order(const predict::Forecaster& model,
                                      const data::Window& window) const;
  /// Candidate target values inside the box for the given regime. `jitter`
  /// in [0, 1) shifts the whole grid by a fraction of its spacing: derived
  /// deterministically per window, it prevents manipulated values from
  /// collapsing onto a handful of exact grid points across windows (which
  /// would hand detectors unrealistic exact-match evidence).
  std::vector<double> candidate_values(data::Regime regime, double jitter) const;

  /// Deterministic per-window jitter in [0, 1) from the feature bytes.
  static double window_jitter(const data::Window& window) noexcept;

  /// Evaluates every candidate value at position `t` of `base` as one
  /// predict_batch call (the probes share all rows except row t), adding the
  /// batch size to `result.probes`. Returns predictions in candidate order.
  std::vector<double> probe_position(const predict::Forecaster& model,
                                     const nn::Matrix& base, std::size_t t,
                                     const std::vector<double>& values,
                                     AttackResult& result) const;

  AttackResult run_ordered_greedy(const predict::Forecaster& model,
                                  const data::Window& window,
                                  const std::vector<std::size_t>& step_order) const;
  AttackResult run_greedy(const predict::Forecaster& model,
                          const data::Window& window) const;
  AttackResult run_beam(const predict::Forecaster& model,
                        const data::Window& window) const;

  AttackConfig config_;
};

/// Convenience: true if the prediction crosses the regime's diagnostic high
/// threshold under the given threshold table.
bool prediction_is_high(double prediction, data::Regime regime,
                        const data::StateThresholds& thresholds) noexcept;

}  // namespace goodones::attack
