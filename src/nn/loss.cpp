#include "nn/loss.hpp"

#include "common/error.hpp"

namespace goodones::nn {

LossResult mse_loss(const Matrix& prediction, const Matrix& target) {
  GO_EXPECTS(prediction.same_shape(target));
  GO_EXPECTS(prediction.size() > 0);
  LossResult result;
  result.grad = Matrix(prediction.rows(), prediction.cols());
  const double inv_n = 1.0 / static_cast<double>(prediction.size());
  double sum = 0.0;
  for (std::size_t r = 0; r < prediction.rows(); ++r) {
    const auto p = prediction.row(r);
    const auto y = target.row(r);
    auto g = result.grad.row(r);
    for (std::size_t c = 0; c < p.size(); ++c) {
      const double diff = p[c] - y[c];
      sum += diff * diff;
      g[c] = 2.0 * diff * inv_n;
    }
  }
  result.value = sum * inv_n;
  return result;
}

}  // namespace goodones::nn
