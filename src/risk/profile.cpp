#include "risk/profile.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace goodones::risk {

double deviation_magnitude(double benign_prediction, double adversarial_prediction) noexcept {
  const double diff = benign_prediction - adversarial_prediction;
  return diff * diff;
}

double RiskProfile::mean() const noexcept {
  return common::mean(values);
}

double RiskProfile::peak() const noexcept {
  if (values.empty()) return 0.0;
  return *std::max_element(values.begin(), values.end());
}

std::vector<double> RiskProfile::log_scaled() const {
  std::vector<double> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) out[i] = std::log1p(values[i]);
  return out;
}

double distribution_distance(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) return 0.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  // Sweep the merged sample points left to right, integrating the gap
  // between the two empirical CDFs over each inter-sample interval.
  const double step_a = 1.0 / static_cast<double>(a.size());
  const double step_b = 1.0 / static_cast<double>(b.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  double cdf_a = 0.0;
  double cdf_b = 0.0;
  double prev = std::min(a.front(), b.front());
  double distance = 0.0;
  while (ia < a.size() || ib < b.size()) {
    const double next = (ib == b.size() || (ia < a.size() && a[ia] <= b[ib])) ? a[ia] : b[ib];
    distance += std::abs(cdf_a - cdf_b) * (next - prev);
    while (ia < a.size() && a[ia] == next) {
      cdf_a += step_a;
      ++ia;
    }
    while (ib < b.size() && b[ib] == next) {
      cdf_b += step_b;
      ++ib;
    }
    prev = next;
  }
  return distance;
}

std::vector<RiskProfile> align_profiles(std::vector<RiskProfile> profiles) {
  GO_EXPECTS(!profiles.empty());
  std::size_t min_len = profiles.front().values.size();
  for (const auto& p : profiles) min_len = std::min(min_len, p.values.size());
  GO_EXPECTS(min_len > 0);
  for (auto& p : profiles) p.values.resize(min_len);
  return profiles;
}

}  // namespace goodones::risk
