// Descriptive statistics used across risk profiling and detection. All
// functions are pure.
#pragma once

#include <span>

namespace goodones::common {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Sample variance (n-1); 0 for fewer than two values.
double variance(std::span<const double> xs) noexcept;

/// Sample standard deviation.
double stddev(std::span<const double> xs) noexcept;

/// Linear-interpolated quantile, q in [0, 1]. Requires non-empty input.
double quantile(std::span<const double> xs, double q);

}  // namespace goodones::common
