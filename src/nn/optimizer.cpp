#include "nn/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace goodones::nn {

Adam::Adam(double learning_rate) : lr_(learning_rate) {
  GO_EXPECTS(learning_rate > 0.0);
}

void Adam::step(const ParamRefs& params) {
  if (m_.empty()) {
    m_.reserve(params.size());
    v_.reserve(params.size());
    for (const auto* p : params) {
      m_.emplace_back(p->value.rows(), p->value.cols());
      v_.emplace_back(p->value.rows(), p->value.cols());
    }
  }
  GO_EXPECTS(m_.size() == params.size());
  ++t_;
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));

  for (std::size_t i = 0; i < params.size(); ++i) {
    ParamBuffer& p = *params[i];
    GO_EXPECTS(m_[i].same_shape(p.value));
    double* value = p.value.data();
    const double* grad = p.grad.data();
    double* m = m_[i].data();
    double* v = v_[i].data();
    for (std::size_t j = 0; j < p.value.size(); ++j) {
      m[j] = kBeta1 * m[j] + (1.0 - kBeta1) * grad[j];
      v[j] = kBeta2 * v[j] + (1.0 - kBeta2) * grad[j] * grad[j];
      const double m_hat = m[j] / bias1;
      const double v_hat = v[j] / bias2;
      value[j] -= lr_ * m_hat / (std::sqrt(v_hat) + kEps);
    }
  }
}

}  // namespace goodones::nn
