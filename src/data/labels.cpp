#include "data/labels.hpp"

#include "common/error.hpp"

namespace goodones::data {

std::vector<Regime> derive_regimes(std::span<const double> events,
                                   std::size_t hold_steps) {
  std::vector<Regime> regimes(events.size(), Regime::kBaseline);
  std::size_t steps_since_event = hold_steps + 1;
  for (std::size_t t = 0; t < events.size(); ++t) {
    if (events[t] > 0.0) steps_since_event = 0;
    else ++steps_since_event;
    if (steps_since_event <= hold_steps) regimes[t] = Regime::kActive;
  }
  return regimes;
}

double normal_ratio(std::span<const double> values, std::span<const Regime> regimes,
                    const StateThresholds& thresholds) {
  GO_EXPECTS(values.size() == regimes.size());
  if (values.empty()) return 0.0;
  std::size_t normal = 0;
  for (std::size_t t = 0; t < values.size(); ++t) {
    if (thresholds.classify(values[t], regimes[t]) == StateLabel::kNormal) ++normal;
  }
  return static_cast<double>(normal) / static_cast<double>(values.size());
}

const char* to_string(StateLabel state) noexcept {
  switch (state) {
    case StateLabel::kLow: return "Low";
    case StateLabel::kNormal: return "Normal";
    case StateLabel::kHigh: return "High";
  }
  return "?";
}

}  // namespace goodones::data
