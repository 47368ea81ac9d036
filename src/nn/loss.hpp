// Loss functions returning both the scalar loss and the gradient with
// respect to the prediction, which is what the training loops consume.
#pragma once

#include "nn/matrix.hpp"

namespace goodones::nn {

struct LossResult {
  double value = 0.0;
  Matrix grad;  // dLoss/dPrediction, same shape as the prediction
};

/// Mean squared error over all elements: L = mean((pred - target)^2).
LossResult mse_loss(const Matrix& prediction, const Matrix& target);

}  // namespace goodones::nn
