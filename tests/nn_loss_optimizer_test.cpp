#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace goodones::nn {
namespace {

TEST(MseLoss, KnownValueAndGradient) {
  const Matrix pred{{1.0, 2.0}};
  const Matrix target{{0.0, 4.0}};
  const LossResult result = mse_loss(pred, target);
  EXPECT_NEAR(result.value, (1.0 + 4.0) / 2.0, 1e-12);
  EXPECT_NEAR(result.grad(0, 0), 2.0 * 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(result.grad(0, 1), 2.0 * -2.0 / 2.0, 1e-12);
}

TEST(MseLoss, ZeroAtPerfectPrediction) {
  const Matrix pred{{3.0, -1.0}};
  const LossResult result = mse_loss(pred, pred);
  EXPECT_DOUBLE_EQ(result.value, 0.0);
  EXPECT_DOUBLE_EQ(result.grad(0, 0), 0.0);
}

TEST(MseLoss, GradientMatchesFiniteDifference) {
  common::Rng rng(3);
  Matrix pred(2, 3);
  Matrix target(2, 3);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      pred(r, c) = rng.uniform(-1, 1);
      target(r, c) = rng.uniform(-1, 1);
    }
  }
  const LossResult result = mse_loss(pred, target);
  const double eps = 1e-6;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      Matrix plus = pred;
      Matrix minus = pred;
      plus(r, c) += eps;
      minus(r, c) -= eps;
      const double numeric =
          (mse_loss(plus, target).value - mse_loss(minus, target).value) / (2 * eps);
      ASSERT_NEAR(result.grad(r, c), numeric, 1e-7);
    }
  }
}

TEST(MseLoss, ShapeMismatchThrows) {
  EXPECT_THROW((void)mse_loss(Matrix(1, 2), Matrix(2, 1)), common::PreconditionError);
}

/// Minimizing f(w) = sum((w - target)^2) must converge.
double optimize_quadratic(Adam optimizer, int steps) {
  ParamBuffer w(2, 2);
  const Matrix target{{1.0, -2.0}, {3.0, 0.5}};
  ParamRefs params{&w};
  for (int i = 0; i < steps; ++i) {
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 2; ++c) {
        w.grad(r, c) = 2.0 * (w.value(r, c) - target(r, c));
      }
    }
    optimizer.step_and_zero(params);
  }
  double err = 0.0;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) err += std::abs(w.value(r, c) - target(r, c));
  }
  return err;
}

TEST(Adam, ConvergesOnQuadratic) {
  EXPECT_LT(optimize_quadratic(Adam(0.1), 500), 1e-4);
}

TEST(Adam, RejectsBadLearningRate) {
  EXPECT_THROW(Adam(-1.0), common::PreconditionError);
}

TEST(GradClip, ScalesDownLargeGradients) {
  ParamBuffer p(1, 2);
  p.grad(0, 0) = 3.0;
  p.grad(0, 1) = 4.0;  // norm 5
  ParamRefs params{&p};
  clip_global_grad_norm(params, 1.0);
  EXPECT_NEAR(global_grad_norm(params), 1.0, 1e-12);
  EXPECT_NEAR(p.grad(0, 0), 0.6, 1e-12);
}

TEST(GradClip, LeavesSmallGradientsAlone) {
  ParamBuffer p(1, 2);
  p.grad(0, 0) = 0.3;
  ParamRefs params{&p};
  clip_global_grad_norm(params, 1.0);
  EXPECT_DOUBLE_EQ(p.grad(0, 0), 0.3);
}

TEST(Param, ZeroAllGrads) {
  ParamBuffer a(2, 3);
  ParamBuffer b(1, 4);
  ParamRefs params{&a, &b};
  a.grad(0, 0) = 5.0;
  zero_all_grads(params);
  EXPECT_DOUBLE_EQ(a.grad(0, 0), 0.0);
}

TEST(Param, XavierInitWithinBound) {
  common::Rng rng(5);
  ParamBuffer p(10, 10);
  p.init_xavier(rng, 10, 10);
  const double bound = std::sqrt(6.0 / 20.0);
  for (std::size_t r = 0; r < 10; ++r) {
    for (const double v : p.value.row(r)) {
      ASSERT_LE(std::abs(v), bound);
    }
  }
}

}  // namespace
}  // namespace goodones::nn
