// Feature scaling fit on training data and applied everywhere else.
//
// Min-max scaling maps each channel to [0, 1] (forecaster + kNN + MAD-GAN
// inputs); z-score standardization is provided for OneClassSVM, whose
// sigmoid kernel needs centered data to leave the saturation region.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "nn/matrix.hpp"

namespace goodones::data {

/// Per-column min-max scaler. transform clamps nothing: out-of-range inputs
/// (e.g. adversarially manipulated CGM) map outside [0, 1] by design so
/// detectors can see them as extreme.
class MinMaxScaler {
 public:
  /// Fits column-wise min/max. Degenerate (constant) columns scale to 0.5.
  void fit(const nn::Matrix& data);

  /// Widens fitted ranges with another matrix (multi-patient fitting).
  void partial_fit(const nn::Matrix& data);

  bool fitted() const noexcept { return !mins_.empty(); }
  std::size_t num_features() const noexcept { return mins_.size(); }

  nn::Matrix transform(const nn::Matrix& data) const;

  /// Scalar helpers for a single column (used for glucose targets).
  double transform_value(double value, std::size_t column) const;
  double inverse_transform_value(double value, std::size_t column) const;

  /// Forces a column's range (e.g. pin glucose to [40, 499] so scaling is
  /// identical across patients regardless of observed extremes).
  void set_column_range(std::size_t column, double min_value, double max_value);

  /// Binary round-trip for the model artifact cache. Bit-exact: a reloaded
  /// scaler transforms identically to the saved one.
  void save(std::ostream& out) const;
  /// Throws common::SerializationError on malformed input (state untouched).
  void load(std::istream& in);

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

/// Per-column z-score standardizer.
class StandardScaler {
 public:
  void fit(const nn::Matrix& data);
  bool fitted() const noexcept { return !means_.empty(); }
  std::size_t num_features() const noexcept { return means_.size(); }

  nn::Matrix transform(const nn::Matrix& data) const;

  /// Binary round-trip for the model artifact cache (bit-exact).
  void save(std::ostream& out) const;
  /// Throws common::SerializationError on malformed input (state untouched).
  void load(std::istream& in);

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
};

}  // namespace goodones::data
