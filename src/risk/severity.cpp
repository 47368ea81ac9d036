#include "risk/severity.hpp"

namespace goodones::risk {

using data::StateLabel;

const std::vector<SeverityEntry>& severity_table() {
  static const std::vector<SeverityEntry> table = {
      {StateLabel::kLow, StateLabel::kHigh, 64.0},
      {StateLabel::kNormal, StateLabel::kHigh, 32.0},
      {StateLabel::kLow, StateLabel::kNormal, 16.0},
      {StateLabel::kHigh, StateLabel::kLow, 8.0},
      {StateLabel::kHigh, StateLabel::kNormal, 4.0},
      {StateLabel::kNormal, StateLabel::kLow, 2.0},
  };
  return table;
}

}  // namespace goodones::risk
