// Fully-connected layer with optional activation.
//
// Operates on (batch x in_dim) matrices; when applied to an LSTM output of
// shape (time x hidden) it acts as a time-distributed dense layer, which is
// exactly how the MAD-GAN generator projects hidden states to signals.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "nn/matrix.hpp"
#include "nn/param.hpp"

namespace goodones::nn {

enum class Activation : std::uint8_t { kLinear, kTanh, kSigmoid };

class Dense {
 public:
  /// Weights initialized Xavier-uniform from `rng`; bias zero.
  Dense(std::size_t in_dim, std::size_t out_dim, Activation activation, common::Rng& rng);

  std::size_t in_dim() const noexcept { return weight_.value.rows(); }
  std::size_t out_dim() const noexcept { return weight_.value.cols(); }
  Activation activation() const noexcept { return activation_; }

  /// Forward pass: y = act(x * W + b). x is (n x in_dim).
  Matrix forward(const Matrix& x) const;

  /// Cache produced by forward_cached, consumed by backward.
  struct Cache {
    Matrix input;   // (n x in_dim)
    Matrix output;  // (n x out_dim), post-activation
  };

  /// Forward that also captures the tensors backward needs.
  Matrix forward_cached(const Matrix& x, Cache& cache) const;

  /// Backward pass. `grad_output` is dLoss/dy (n x out_dim). Accumulates
  /// parameter gradients and returns dLoss/dx (n x in_dim).
  Matrix backward(const Matrix& grad_output, const Cache& cache);

  /// dLoss/dx only, skipping the parameter-gradient accumulation (and
  /// therefore const). Bit-identical to the dx backward() returns; the
  /// latent-inversion hot path uses this because it never reads dW/db.
  Matrix backward_input(const Matrix& grad_output, const Cache& cache) const;

  ParamRefs parameters() noexcept { return {&weight_, &bias_}; }

  /// Direct access for serialization.
  ParamBuffer& weight() noexcept { return weight_; }
  ParamBuffer& bias() noexcept { return bias_; }
  const ParamBuffer& weight() const noexcept { return weight_; }
  const ParamBuffer& bias() const noexcept { return bias_; }

 private:
  Matrix apply_activation(Matrix pre) const noexcept;

  ParamBuffer weight_;  // (in_dim x out_dim)
  ParamBuffer bias_;    // (1 x out_dim)
  Activation activation_;
};

}  // namespace goodones::nn
