#include "nn/param.hpp"

#include <cmath>

namespace goodones::nn {

void ParamBuffer::init_xavier(common::Rng& rng, std::size_t fan_in, std::size_t fan_out) {
  const double bound = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  init_uniform(rng, bound);
}

void ParamBuffer::init_uniform(common::Rng& rng, double bound) {
  for (std::size_t r = 0; r < value.rows(); ++r) {
    for (double& x : value.row(r)) x = rng.uniform(-bound, bound);
  }
  grad.set_zero();
}

void zero_all_grads(const ParamRefs& params) noexcept {
  for (auto* p : params) p->zero_grad();
}

double global_grad_norm(const ParamRefs& params) noexcept {
  double sum = 0.0;
  for (const auto* p : params) sum += p->grad.squared_norm();
  return std::sqrt(sum);
}

void clip_global_grad_norm(const ParamRefs& params, double max_norm) noexcept {
  const double norm = global_grad_norm(params);
  if (norm <= max_norm || norm == 0.0) return;
  const double scale = max_norm / norm;
  for (auto* p : params) p->grad *= scale;
}

}  // namespace goodones::nn
