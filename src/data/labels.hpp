// Domain-agnostic telemetry vocabulary shared by every scenario.
//
// The risk-profiling engine reasons about a monitored scalar signal whose
// readings fall into three diagnostic states (low / normal / high) under a
// two-regime operating context. Each DomainAdapter maps its own semantics
// onto this vocabulary — the BGMS case study maps hypo/normal/hyperglycemia
// onto the states and fasting/postprandial onto the regimes; the synthetic
// sensor-fleet domain maps under/normal/over-range and idle/event regimes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace goodones::data {

/// Diagnostic state of a target-signal reading. Ordering is part of the
/// contract: severity schedules index transition tables by the enum value.
enum class StateLabel : std::uint8_t { kLow = 0, kNormal = 1, kHigh = 2 };

/// Operating regime at a sample. The engine is regime-aware because both
/// diagnostic thresholds and attack constraint boxes differ per regime
/// (BGMS: fasting vs. two hours postprandial; synthtel: idle vs. event).
enum class Regime : std::uint8_t { kBaseline = 0, kActive = 1 };

/// Per-domain diagnostic thresholds on the raw target signal.
struct StateThresholds {
  double low = 0.0;            ///< below -> kLow
  double high_baseline = 1.0;  ///< above (baseline regime) -> kHigh
  double high_active = 1.0;    ///< above (active regime) -> kHigh

  /// High threshold for the given regime.
  double high(Regime regime) const noexcept {
    return regime == Regime::kBaseline ? high_baseline : high_active;
  }

  /// Classifies a raw reading under the given regime.
  StateLabel classify(double value, Regime regime) const noexcept {
    if (value < low) return StateLabel::kLow;
    if (value > high(regime)) return StateLabel::kHigh;
    return StateLabel::kNormal;
  }
};

/// Derives the per-step regime from an event channel: a step is kActive if
/// any positive event value occurred within the previous `hold_steps` steps
/// (inclusive of the current step). BGMS uses the carbs channel with a
/// two-hour hold; other domains pick their own event channel and hold.
std::vector<Regime> derive_regimes(std::span<const double> events,
                                   std::size_t hold_steps);

/// Fraction of readings in the normal state (the paper's Fig. 4 statistic,
/// generalized). Requires equal lengths; empty input returns 0.
double normal_ratio(std::span<const double> values, std::span<const Regime> regimes,
                    const StateThresholds& thresholds);

const char* to_string(StateLabel state) noexcept;

}  // namespace goodones::data
