// Strict number parsing for the command-line tools.
//
// std::stoul and friends read a prefix ("12abc" is 12), wrap "-1" to
// 2^64 - 1, and std::stod reads "nan". A tool then runs on a value nobody
// typed. These parsers take the whole text or throw std::invalid_argument
// (not a number of that kind) or std::out_of_range (too large for the
// target type); the message quotes the text, and the caller names the
// argument.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>

namespace goodones::tools {

/// A whole unsigned decimal that fits T (a signed T admits 0 to its max).
template <typename T>
T parse_unsigned(const std::string& text) {
  static_assert(std::is_integral_v<T>);
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (ptr != end || error == std::errc::invalid_argument) {
    throw std::invalid_argument("expected an unsigned integer, got '" + text + "'");
  }
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (error == std::errc::result_out_of_range || value > kMax) {
    throw std::out_of_range("'" + text + "' exceeds " + std::to_string(kMax));
  }
  return static_cast<T>(value);
}

/// A whole decimal real that is finite ("nan" and "inf" are refused).
inline double parse_finite(const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (ptr != end || error != std::errc{} || !std::isfinite(value)) {
    throw std::invalid_argument("expected a finite number, got '" + text + "'");
  }
  return value;
}

}  // namespace goodones::tools
