#include "nn/activations.hpp"

namespace goodones::nn {

Matrix tanh_matrix(Matrix m) noexcept {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (double& x : m.row(r)) x = std::tanh(x);
  }
  return m;
}

Matrix sigmoid_matrix(Matrix m) noexcept {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (double& x : m.row(r)) x = sigmoid(x);
  }
  return m;
}

}  // namespace goodones::nn
