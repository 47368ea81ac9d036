// Scalar activation functions and their derivatives expressed in terms of
// the activation *output* (the form backpropagation needs when only the
// forward value was cached).
//
// sigmoid and tanh are the repository's own (nn/kernels/transcendental.hpp),
// the same functions the LSTM gate kernels evaluate; the matrix forms run
// them through the active SIMD lane.
#pragma once

#include "nn/kernels/transcendental.hpp"
#include "nn/matrix.hpp"

namespace goodones::nn {

/// Sign-split sigmoid: exp(-|x|) never overflows.
inline double sigmoid(double x) noexcept { return simd::tmath::sigmoid(x); }

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
