#include "nn/dense.hpp"

#include "common/error.hpp"
#include "nn/activations.hpp"

namespace goodones::nn {

Dense::Dense(std::size_t in_dim, std::size_t out_dim, Activation activation, common::Rng& rng)
    : weight_(in_dim, out_dim), bias_(1, out_dim), activation_(activation) {
  GO_EXPECTS(in_dim > 0 && out_dim > 0);
  weight_.init_xavier(rng, in_dim, out_dim);
}

Matrix Dense::apply_activation(Matrix pre) const noexcept {
  switch (activation_) {
    case Activation::kLinear: return pre;
    case Activation::kTanh: return tanh_matrix(std::move(pre));
    case Activation::kSigmoid: return sigmoid_matrix(std::move(pre));
  }
  return pre;
}

Matrix Dense::forward(const Matrix& x) const {
  GO_EXPECTS(x.cols() == in_dim());
  Matrix pre = matmul(x, weight_.value);
  for (std::size_t r = 0; r < pre.rows(); ++r) {
    axpy(1.0, bias_.value.row(0), pre.row(r));
  }
  return apply_activation(std::move(pre));
}

Matrix Dense::forward_cached(const Matrix& x, Cache& cache) const {
  cache.input = x;
  cache.output = forward(x);
  return cache.output;
}

namespace {

/// Gradient through an activation, expressed via the cached output.
Matrix activation_backward(const Matrix& grad_output, const Matrix& output,
                           Activation activation) {
  Matrix grad_pre = grad_output;
  switch (activation) {
    case Activation::kLinear:
      break;
    case Activation::kTanh:
      for (std::size_t r = 0; r < grad_pre.rows(); ++r) {
        auto g = grad_pre.row(r);
        const auto y = output.row(r);
        for (std::size_t c = 0; c < g.size(); ++c) g[c] *= tanh_grad_from_output(y[c]);
      }
      break;
    case Activation::kSigmoid:
      for (std::size_t r = 0; r < grad_pre.rows(); ++r) {
        auto g = grad_pre.row(r);
        const auto y = output.row(r);
        for (std::size_t c = 0; c < g.size(); ++c) g[c] *= sigmoid_grad_from_output(y[c]);
      }
      break;
  }

  return grad_pre;
}

}  // namespace

Matrix Dense::backward(const Matrix& grad_output, const Cache& cache) {
  GO_EXPECTS(grad_output.rows() == cache.output.rows());
  GO_EXPECTS(grad_output.cols() == out_dim());
  const Matrix grad_pre = activation_backward(grad_output, cache.output, activation_);

  // dW += x^T * grad_pre ; db += column sums ; dx = grad_pre * W^T.
  matmul_trans_a_accumulate(cache.input, grad_pre, weight_.grad);
  for (std::size_t r = 0; r < grad_pre.rows(); ++r) {
    axpy(1.0, grad_pre.row(r), bias_.grad.row(0));
  }
  return matmul_trans_b(grad_pre, weight_.value);
}

Matrix Dense::backward_input(const Matrix& grad_output, const Cache& cache) const {
  GO_EXPECTS(grad_output.rows() == cache.output.rows());
  GO_EXPECTS(grad_output.cols() == out_dim());
  const Matrix grad_pre = activation_backward(grad_output, cache.output, activation_);
  return matmul_trans_b(grad_pre, weight_.value);
}

}  // namespace goodones::nn
