// Glycemic-state semantics of the BGMS case study, expressed over the
// engine's generic state/regime vocabulary (data/labels.hpp).
//
// The paper's thresholds: hypoglycemia below 70 mg/dL; hyperglycemia above
// 125 mg/dL in a fasting state and above 180 mg/dL within two hours after a
// meal (postprandial). In the generic vocabulary: kLow = hypoglycemia,
// kHigh = hyperglycemia, kBaseline regime = fasting, kActive = postprandial.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/labels.hpp"

namespace goodones::bgms {

inline constexpr double kHypoThreshold = 70.0;                ///< mg/dL
inline constexpr double kFastingHyperThreshold = 125.0;       ///< mg/dL
inline constexpr double kPostprandialHyperThreshold = 180.0;  ///< mg/dL
/// Two hours at the 5-minute cadence.
inline constexpr std::size_t kPostprandialSteps = 24;

/// The paper's glycemic thresholds as a generic threshold table.
data::StateThresholds glycemic_thresholds() noexcept;

/// Classifies a glucose value under the given meal regime.
data::StateLabel classify(double glucose_mgdl, data::Regime regime) noexcept;

/// Derives the meal regime of every step from the carbs channel: a step is
/// postprandial (kActive) if any carbs were ingested within the previous
/// two hours (inclusive of the current step).
std::vector<data::Regime> derive_meal_context(std::span<const double> carbs);

}  // namespace goodones::bgms
