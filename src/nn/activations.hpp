// Scalar activation functions and their derivatives expressed in terms of
// the activation *output* (the form backpropagation needs when only the
// forward value was cached).
#pragma once

#include <cmath>

#include "nn/matrix.hpp"

namespace goodones::nn {

inline double sigmoid(double x) noexcept {
  // Split by sign to avoid overflow in exp for large |x|.
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

/// d sigmoid / dx given y = sigmoid(x).
inline double sigmoid_grad_from_output(double y) noexcept {
  return y * (1.0 - y);
}

/// d tanh / dx given y = tanh(x).
inline double tanh_grad_from_output(double y) noexcept {
  return 1.0 - y * y;
}

/// Applies tanh element-wise to a matrix copy.
Matrix tanh_matrix(Matrix m) noexcept;

/// Applies sigmoid element-wise to a matrix copy.
Matrix sigmoid_matrix(Matrix m) noexcept;

}  // namespace goodones::nn
