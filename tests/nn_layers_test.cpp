// Gradient checking for all layers: analytic backward vs central finite
// differences. These tests are the foundation forecaster training and
// MAD-GAN's latent inversion rest on.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/loss.hpp"

namespace goodones::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, common::Rng& rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& x : m.row(r)) x = rng.uniform(-scale, scale);
  }
  return m;
}

/// Scalar loss used for gradient checks: weighted sum of outputs (weights
/// fixed per test so dLoss/dOutput is known exactly).
double weighted_sum(const Matrix& out, const Matrix& weights) {
  double sum = 0.0;
  for (std::size_t r = 0; r < out.rows(); ++r) {
    for (std::size_t c = 0; c < out.cols(); ++c) sum += out(r, c) * weights(r, c);
  }
  return sum;
}

constexpr double kEps = 1e-5;
constexpr double kTol = 1e-6;

TEST(Activations, SigmoidSymmetryAndRange) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(5.0) + sigmoid(-5.0), 1.0, 1e-12);
  EXPECT_GT(sigmoid(100.0), 0.999);
  EXPECT_LT(sigmoid(-100.0), 0.001);
  EXPECT_TRUE(std::isfinite(sigmoid(1000.0)));
  EXPECT_TRUE(std::isfinite(sigmoid(-1000.0)));
}

TEST(Activations, DerivativesFromOutputs) {
  const double y = sigmoid(0.7);
  EXPECT_NEAR(sigmoid_grad_from_output(y), y * (1 - y), 1e-15);
  const double t = std::tanh(0.3);
  EXPECT_NEAR(tanh_grad_from_output(t), 1 - t * t, 1e-15);
}

class DenseGradientCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(DenseGradientCheck, ParameterAndInputGradientsMatchFiniteDifferences) {
  common::Rng rng(101);
  Dense layer(4, 3, GetParam(), rng);
  const Matrix x = random_matrix(5, 4, rng);
  const Matrix loss_weights = random_matrix(5, 3, rng);

  Dense::Cache cache;
  layer.forward_cached(x, cache);
  const Matrix dx = layer.backward(loss_weights, cache);

  // Input gradient check.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      Matrix plus = x;
      Matrix minus = x;
      plus(r, c) += kEps;
      minus(r, c) -= kEps;
      const double numeric =
          (weighted_sum(layer.forward(plus), loss_weights) -
           weighted_sum(layer.forward(minus), loss_weights)) /
          (2 * kEps);
      ASSERT_NEAR(dx(r, c), numeric, kTol);
    }
  }

  // Weight gradient check (sampled entries).
  for (const auto& [wr, wc] : {std::pair<std::size_t, std::size_t>{0, 0}, {3, 2}, {1, 1}}) {
    const double original = layer.weight().value(wr, wc);
    layer.weight().value(wr, wc) = original + kEps;
    const double up = weighted_sum(layer.forward(x), loss_weights);
    layer.weight().value(wr, wc) = original - kEps;
    const double down = weighted_sum(layer.forward(x), loss_weights);
    layer.weight().value(wr, wc) = original;
    ASSERT_NEAR(layer.weight().grad(wr, wc), (up - down) / (2 * kEps), kTol);
  }

  // Bias gradient check.
  for (std::size_t c = 0; c < 3; ++c) {
    const double original = layer.bias().value(0, c);
    layer.bias().value(0, c) = original + kEps;
    const double up = weighted_sum(layer.forward(x), loss_weights);
    layer.bias().value(0, c) = original - kEps;
    const double down = weighted_sum(layer.forward(x), loss_weights);
    layer.bias().value(0, c) = original;
    ASSERT_NEAR(layer.bias().grad(0, c), (up - down) / (2 * kEps), kTol);
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, DenseGradientCheck,
                         ::testing::Values(Activation::kLinear, Activation::kTanh,
                                           Activation::kSigmoid));

TEST(Lstm, ForwardShapesAndDeterminism) {
  common::Rng rng(55);
  const Lstm lstm(3, 8, rng);
  common::Rng data_rng(56);
  const Matrix x = random_matrix(10, 3, data_rng);
  const Matrix h1 = lstm.forward(x);
  const Matrix h2 = lstm.forward(x);
  EXPECT_EQ(h1.rows(), 10u);
  EXPECT_EQ(h1.cols(), 8u);
  for (std::size_t t = 0; t < 10; ++t) {
    for (std::size_t j = 0; j < 8; ++j) ASSERT_DOUBLE_EQ(h1(t, j), h2(t, j));
  }
}

TEST(Lstm, HiddenValuesBounded) {
  common::Rng rng(57);
  const Lstm lstm(2, 6, rng);
  common::Rng data_rng(58);
  const Matrix x = random_matrix(20, 2, data_rng, 5.0);
  const Matrix h = lstm.forward(x);
  for (std::size_t t = 0; t < h.rows(); ++t) {
    for (const double v : h.row(t)) {
      ASSERT_LT(std::abs(v), 1.0);  // |h| = |o * tanh(c)| < 1
    }
  }
}

TEST(Lstm, InputGradientMatchesFiniteDifferences) {
  common::Rng rng(59);
  Lstm lstm(3, 5, rng);
  common::Rng data_rng(60);
  const Matrix x = random_matrix(6, 3, data_rng);
  const Matrix loss_weights = random_matrix(6, 5, data_rng);

  Lstm::Cache cache;
  lstm.forward_cached(x, cache);
  const Matrix dx = lstm.backward(loss_weights, cache);

  for (std::size_t t = 0; t < x.rows(); ++t) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      Matrix plus = x;
      Matrix minus = x;
      plus(t, c) += kEps;
      minus(t, c) -= kEps;
      const double numeric = (weighted_sum(lstm.forward(plus), loss_weights) -
                              weighted_sum(lstm.forward(minus), loss_weights)) /
                             (2 * kEps);
      ASSERT_NEAR(dx(t, c), numeric, kTol) << "t=" << t << " c=" << c;
    }
  }
}

TEST(Lstm, ParameterGradientsMatchFiniteDifferences) {
  common::Rng rng(61);
  Lstm lstm(2, 4, rng);
  common::Rng data_rng(62);
  const Matrix x = random_matrix(5, 2, data_rng);
  const Matrix loss_weights = random_matrix(5, 4, data_rng);

  Lstm::Cache cache;
  lstm.forward_cached(x, cache);
  lstm.backward(loss_weights, cache);

  const auto check_param = [&](ParamBuffer& p, std::size_t r, std::size_t c) {
    const double original = p.value(r, c);
    p.value(r, c) = original + kEps;
    const double up = weighted_sum(lstm.forward(x), loss_weights);
    p.value(r, c) = original - kEps;
    const double down = weighted_sum(lstm.forward(x), loss_weights);
    p.value(r, c) = original;
    ASSERT_NEAR(p.grad(r, c), (up - down) / (2 * kEps), kTol)
        << "param entry (" << r << "," << c << ")";
  };

  // Sample entries across all three parameter tensors and all four gates.
  for (std::size_t gate = 0; gate < 4; ++gate) {
    check_param(lstm.weight_input(), 0, gate * 4 + 1);
    check_param(lstm.weight_input(), 1, gate * 4 + 3);
    check_param(lstm.weight_hidden(), 2, gate * 4 + 0);
    check_param(lstm.bias(), 0, gate * 4 + 2);
  }
}

}  // namespace
}  // namespace goodones::nn
