// Adam over ParamRefs. State is keyed by position in the parameter list, so
// the same model must always present its buffers in the same order (which
// our layer classes guarantee).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/param.hpp"

namespace goodones::nn {

/// Adam (Kingma & Ba) with bias correction and their default moment decays
/// (beta1 = 0.9, beta2 = 0.999, eps = 1e-8).
class Adam {
 public:
  explicit Adam(double learning_rate);

  /// Applies one update from the gradients currently in the buffers.
  void step(const ParamRefs& params);

  /// step, then zero all gradients.
  void step_and_zero(const ParamRefs& params) {
    step(params);
    zero_all_grads(params);
  }

 private:
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEps = 1e-8;

  double lr_;
  std::size_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace goodones::nn
