#include "nn/activations.hpp"

#include "nn/simd.hpp"

namespace goodones::nn {

Matrix tanh_matrix(Matrix m) noexcept {
  simd::active().tanh_n(m.data(), m.data(), m.size());
  return m;
}

Matrix sigmoid_matrix(Matrix m) noexcept {
  simd::active().sigmoid_n(m.data(), m.data(), m.size());
  return m;
}

}  // namespace goodones::nn
