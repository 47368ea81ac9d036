#include "data/scaler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "nn/serialize.hpp"

namespace goodones::data {
namespace {

/// Scaler section tags: a scaler of the wrong kind in a composite artifact
/// stream fails loudly instead of silently misinterpreting bytes.
constexpr std::uint32_t kMinMaxTag = 0x4D4D5343;    // "MMSC"
constexpr std::uint32_t kStandardTag = 0x53545343;  // "STSC"

}  // namespace

void MinMaxScaler::fit(const nn::Matrix& data) {
  mins_.clear();
  maxs_.clear();
  partial_fit(data);
}

void MinMaxScaler::partial_fit(const nn::Matrix& data) {
  GO_EXPECTS(data.rows() > 0);
  if (mins_.empty()) {
    mins_.assign(data.cols(), std::numeric_limits<double>::infinity());
    maxs_.assign(data.cols(), -std::numeric_limits<double>::infinity());
  }
  GO_EXPECTS(data.cols() == mins_.size());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      mins_[c] = std::min(mins_[c], data(r, c));
      maxs_[c] = std::max(maxs_[c], data(r, c));
    }
  }
}

nn::Matrix MinMaxScaler::transform(const nn::Matrix& data) const {
  GO_EXPECTS(fitted());
  GO_EXPECTS(data.cols() == mins_.size());
  nn::Matrix out(data.rows(), data.cols());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      out(r, c) = transform_value(data(r, c), c);
    }
  }
  return out;
}

double MinMaxScaler::transform_value(double value, std::size_t column) const {
  GO_EXPECTS(column < mins_.size());
  const double range = maxs_[column] - mins_[column];
  if (range <= 0.0) return 0.5;
  return (value - mins_[column]) / range;
}

double MinMaxScaler::inverse_transform_value(double value, std::size_t column) const {
  GO_EXPECTS(column < mins_.size());
  const double range = maxs_[column] - mins_[column];
  if (range <= 0.0) return mins_[column];
  return mins_[column] + value * range;
}

void MinMaxScaler::set_column_range(std::size_t column, double min_value, double max_value) {
  GO_EXPECTS(fitted());
  GO_EXPECTS(column < mins_.size());
  GO_EXPECTS(min_value < max_value);
  mins_[column] = min_value;
  maxs_[column] = max_value;
}

void MinMaxScaler::save(std::ostream& out) const {
  nn::write_u32(out, kMinMaxTag);
  nn::write_f64_vector(out, mins_);
  nn::write_f64_vector(out, maxs_);
}

void MinMaxScaler::load(std::istream& in) {
  nn::expect_u32(in, kMinMaxTag, "min-max scaler tag");
  std::vector<double> mins = nn::read_f64_vector(in, "scaler mins");
  std::vector<double> maxs = nn::read_f64_vector(in, "scaler maxs");
  if (mins.size() != maxs.size()) {
    throw common::SerializationError("min-max scaler column count mismatch");
  }
  // fit()/set_column_range() guarantee finite ranges with max >= min
  // (equality = degenerate constant column, handled by transform); anything
  // else is a corrupt artifact that would otherwise serve NaN features.
  for (std::size_t c = 0; c < mins.size(); ++c) {
    if (!std::isfinite(mins[c]) || !std::isfinite(maxs[c]) || maxs[c] < mins[c]) {
      throw common::SerializationError("min-max scaler artifact carries an invalid range");
    }
  }
  mins_ = std::move(mins);
  maxs_ = std::move(maxs);
}

void StandardScaler::save(std::ostream& out) const {
  nn::write_u32(out, kStandardTag);
  nn::write_f64_vector(out, means_);
  nn::write_f64_vector(out, stds_);
}

void StandardScaler::load(std::istream& in) {
  nn::expect_u32(in, kStandardTag, "standard scaler tag");
  std::vector<double> means = nn::read_f64_vector(in, "scaler means");
  std::vector<double> stds = nn::read_f64_vector(in, "scaler stds");
  if (means.size() != stds.size()) {
    throw common::SerializationError("standard scaler column count mismatch");
  }
  // fit() guarantees finite means and strictly positive stds; anything
  // else divides by zero (or NaN-poisons) every transform.
  for (std::size_t c = 0; c < means.size(); ++c) {
    if (!std::isfinite(means[c]) || !std::isfinite(stds[c]) || stds[c] <= 0.0) {
      throw common::SerializationError("standard scaler artifact carries an invalid std");
    }
  }
  means_ = std::move(means);
  stds_ = std::move(stds);
}

void StandardScaler::fit(const nn::Matrix& data) {
  GO_EXPECTS(data.rows() > 1);
  means_.assign(data.cols(), 0.0);
  stds_.assign(data.cols(), 0.0);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) means_[c] += data(r, c);
  }
  for (double& m : means_) m /= static_cast<double>(data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      const double d = data(r, c) - means_[c];
      stds_[c] += d * d;
    }
  }
  for (double& s : stds_) {
    s = std::sqrt(s / static_cast<double>(data.rows() - 1));
    if (s < 1e-12) s = 1.0;  // constant column: pass through centered
  }
}

nn::Matrix StandardScaler::transform(const nn::Matrix& data) const {
  GO_EXPECTS(fitted());
  GO_EXPECTS(data.cols() == means_.size());
  nn::Matrix out(data.rows(), data.cols());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    for (std::size_t c = 0; c < data.cols(); ++c) {
      out(r, c) = (data(r, c) - means_[c]) / stds_[c];
    }
  }
  return out;
}

}  // namespace goodones::data
