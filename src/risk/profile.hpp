// Deviation magnitude (paper Eq. 2) and per-victim time-series risk
// profiles (framework step 3).
//
//   Z_t = (y_t - f(x_t))^2          deviation magnitude between benign and
//                                   adversarial model predictions (Eq. 2)
//   R_t = S * Z_t                   severity-weighted instantaneous risk
//                                   (Eq. 1, under a SeveritySchedule: see
//                                   risk/schedule.hpp)
#pragma once

#include <string>
#include <vector>

namespace goodones::risk {

/// Eq. 2: squared deviation between benign and adversarial predictions.
double deviation_magnitude(double benign_prediction,
                           double adversarial_prediction) noexcept;

/// A victim's continuous risk profile: R_t at every attacked timestamp,
/// in time order (framework step 3). `name` is the domain's display label
/// for the entity (e.g. "A_3" for a BGMS patient, "S_07" for a sensor).
struct RiskProfile {
  std::string name;
  std::vector<double> values;

  double mean() const noexcept;
  double peak() const noexcept;

  /// log1p-compressed copy. Risk spans orders of magnitude (severity 64 x
  /// squared deviations); log scaling keeps profile distances from being
  /// dominated by single spikes when clustering.
  std::vector<double> log_scaled() const;
};

/// Truncates all profiles to the shortest length so they form an aligned
/// matrix for distance computation. Requires non-empty, non-degenerate input.
std::vector<RiskProfile> align_profiles(std::vector<RiskProfile> profiles);

/// Empirical 1-D Wasserstein-1 distance between two risk-sample sets:
/// the integral of |F_a - F_b| over the merged support. Order-insensitive
/// (both inputs are sorted internally), so concurrent accumulation of the
/// same samples yields the same distance bitwise as a serial pass. Either
/// side empty -> 0.0. Takes copies by value because it must sort.
double distribution_distance(std::vector<double> a, std::vector<double> b);

}  // namespace goodones::risk
