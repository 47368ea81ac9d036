// Evasion-attack configuration mirroring the paper's URET setup,
// generalized over the engine's domain vocabulary.
//
// Threat model: the adversary can rewrite only the target channel of the
// telemetry window (e.g. a compromised sensor link) and must keep
// manipulated values inside a per-regime plausibility box. The goal is to
// push the DNN's forecast across the domain's high-state threshold while
// the victim's true state is normal or low.
//
// The numeric defaults below are the BGMS case study's calibration
// (mg/dL boxes from OhioT1DM, overdose harm level); every DomainAdapter
// stamps its own semantics via DomainAdapter::prepare().
#pragma once

#include <cstddef>

#include "data/labels.hpp"
#include "nn/simd.hpp"

namespace goodones::attack {

struct AttackConfig {
  /// Edit budget. URET-style attacks minimize perturbation: a stealthy
  /// adversary rewrites only a few recent readings, because wholesale
  /// window rewrites are trivially detectable. With a bounded budget the
  /// remaining benign readings anchor the forecast, which is exactly where
  /// entity-to-entity resilience differences (paper Fig. 9/10) come from.
  std::size_t max_edits = 4;
  /// Grid resolution inside the constraint box. The stealth-first search
  /// picks the smallest succeeding value, so a finer grid lets successful
  /// manipulations sit just above what the model needs — overlapping the
  /// victim's benign abnormal range (the paper's Fig. 6 quadrants).
  std::size_t value_candidates = 6;

  /// Escalation stealth of the search. When an edit cannot yet cross the
  /// success threshold, the attacker escalates: with stealth_fraction <= 0
  /// it takes the candidate with the largest forecast
  /// gain (worst-case/aggressive attacker — what the defender's risk
  /// profiling should measure); with a positive fraction it takes the
  /// smallest candidate covering that fraction of the remaining distance to
  /// the threshold (a detector-evading attacker whose manipulations blend
  /// into benign excursions).
  double stealth_fraction = 0.6;

  /// Numeric lane of every candidate probe's predict_batch. Probes only
  /// steer the search — under the kFast approximation lane the final
  /// reported trajectory is re-verified through the exact model:
  /// adversarial_prediction is recomputed in the exact lane and success
  /// re-derived, so reported numbers never carry approximation error.
  nn::Precision probe_precision = nn::Precision::kDouble;

  /// Channel of the telemetry window the adversary can rewrite (the
  /// forecast target channel; stamped by the domain adapter).
  std::size_t target_channel = 0;

  /// Diagnostic thresholds of the domain (state classification of benign
  /// and induced predictions). Defaults: the BGMS glycemic table.
  data::StateThresholds thresholds{/*low=*/70.0, /*high_baseline=*/125.0,
                                   /*high_active=*/180.0};

  // Constraint box per regime (raw units). Defaults: the paper's
  // [125, 499] mg/dL fasting and [180, 499] mg/dL postprandial boxes.
  double baseline_box_min = 125.0;
  double active_box_min = 180.0;
  double box_max = 499.0;

  /// Harm level (raw units): the attack counts as successful only when the
  /// induced prediction exceeds this level. A prediction a hair over the
  /// diagnostic threshold triggers a negligible correction, so the faithful
  /// reading of the threat model is a prediction high enough to provoke a
  /// harmful response (the BGMS paper's "excessively high insulin dose").
  /// This is also where entity resilience becomes measurable: stable
  /// entities' personalized models damp manipulated inputs and cannot be
  /// pushed this high, while volatile entities' models follow the
  /// manipulated channel all the way up.
  double harm_threshold = 370.0;

  /// Lower bound of the box for a given regime.
  double box_min(data::Regime regime) const noexcept {
    return regime == data::Regime::kBaseline ? baseline_box_min : active_box_min;
  }

  /// Prediction level that counts as a successful attack for this regime
  /// (never below the regime's diagnostic high threshold).
  double success_threshold(data::Regime regime) const noexcept {
    const double diagnostic = thresholds.high(regime);
    return harm_threshold > diagnostic ? harm_threshold : diagnostic;
  }

  /// Treatment-relevant state induced by an adversarial prediction: the
  /// victim system only takes a harmful action when the prediction crosses
  /// the harm level, so risk quantification counts the High transition only
  /// then (elevated-but-subcritical predictions remain "Normal").
  data::StateLabel induced_state(double prediction,
                                 data::Regime regime) const noexcept {
    if (prediction > success_threshold(regime)) return data::StateLabel::kHigh;
    if (prediction < thresholds.low) return data::StateLabel::kLow;
    return data::StateLabel::kNormal;
  }
};

}  // namespace goodones::attack
