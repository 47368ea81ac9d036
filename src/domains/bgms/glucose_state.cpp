#include "domains/bgms/glucose_state.hpp"

namespace goodones::bgms {

data::StateThresholds glycemic_thresholds() noexcept {
  data::StateThresholds thresholds;
  thresholds.low = kHypoThreshold;
  thresholds.high_baseline = kFastingHyperThreshold;
  thresholds.high_active = kPostprandialHyperThreshold;
  return thresholds;
}

data::StateLabel classify(double glucose_mgdl, data::Regime regime) noexcept {
  return glycemic_thresholds().classify(glucose_mgdl, regime);
}

std::vector<data::Regime> derive_meal_context(std::span<const double> carbs) {
  return data::derive_regimes(carbs, kPostprandialSteps);
}

}  // namespace goodones::bgms
