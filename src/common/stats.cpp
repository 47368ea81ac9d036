#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace goodones::common {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double sum = 0.0;
  for (const double x : xs) sum += (x - m) * (x - m);
  return sum / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

double quantile(std::span<const double> xs, double q) {
  GO_EXPECTS(!xs.empty());
  GO_EXPECTS(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace goodones::common
