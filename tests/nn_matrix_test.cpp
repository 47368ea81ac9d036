#include "nn/matrix.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace goodones::nn {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, common::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& x : m.row(r)) x = rng.uniform(-2.0, 2.0);
  }
  return m;
}

/// Naive triple-loop reference multiply.
Matrix reference_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += a(i, k) * b(k, j);
      out(i, j) = sum;
    }
  }
  return out;
}

void expect_matrices_near(const Matrix& a, const Matrix& b, double tol = 1e-12) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      ASSERT_NEAR(a(r, c), b(r, c), tol) << "at (" << r << "," << c << ")";
    }
  }
}

TEST(Matrix, ConstructionZeroInitialized) {
  const Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_DOUBLE_EQ(m(r, c), 0.0);
  }
}

TEST(Matrix, InitializerListLayout) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, InitializerListRejectsRagged) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), common::PreconditionError);
}

TEST(Matrix, RowSpanWritesThrough) {
  Matrix m(2, 2);
  auto row = m.row(1);
  row[0] = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 5.0);
}

TEST(Matrix, MatmulMatchesReference) {
  common::Rng rng(5);
  const Matrix a = random_matrix(7, 5, rng);
  const Matrix b = random_matrix(5, 9, rng);
  expect_matrices_near(matmul(a, b), reference_matmul(a, b));
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(4, 2);
  EXPECT_THROW((void)matmul(a, b), common::PreconditionError);
}

TEST(Matrix, MatmulTransAMatchesExplicitTranspose) {
  common::Rng rng(7);
  const Matrix a = random_matrix(6, 4, rng);
  const Matrix b = random_matrix(6, 3, rng);
  expect_matrices_near(matmul_trans_a(a, b), reference_matmul(a.transposed(), b));
}

TEST(Matrix, MatmulTransBMatchesExplicitTranspose) {
  common::Rng rng(9);
  const Matrix a = random_matrix(4, 5, rng);
  const Matrix b = random_matrix(7, 5, rng);
  expect_matrices_near(matmul_trans_b(a, b), reference_matmul(a, b.transposed()));
}

TEST(Matrix, AccumulateVariantsAddToExisting) {
  common::Rng rng(11);
  const Matrix a = random_matrix(3, 3, rng);
  const Matrix b = random_matrix(3, 3, rng);
  Matrix out(3, 3, 1.0);
  matmul_accumulate(a, b, out);
  Matrix expected = reference_matmul(a, b);
  for (std::size_t r = 0; r < 3; ++r) {
    for (double& x : expected.row(r)) x += 1.0;
  }
  expect_matrices_near(out, expected);
}

TEST(Matrix, TransposeInvolution) {
  common::Rng rng(13);
  const Matrix a = random_matrix(4, 6, rng);
  expect_matrices_near(a.transposed().transposed(), a);
}

TEST(Matrix, ScalarMultiplication) {
  Matrix a{{1.0, -2.0}};
  a *= 3.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a(0, 1), -6.0);
}

TEST(Matrix, SquaredNorm) {
  const Matrix a{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.squared_norm(), 25.0);
}

TEST(Matrix, AxpyAccumulates) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{10.0, 10.0, 10.0};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[2], 16.0);
}

TEST(Matrix, AxpySizeMismatchThrows) {
  const std::vector<double> x{1.0};
  std::vector<double> y{1.0, 2.0};
  EXPECT_THROW(axpy(1.0, x, y), common::PreconditionError);
}

struct MatmulShape {
  std::size_t m, k, n;
};

class MatmulShapeSweep : public ::testing::TestWithParam<MatmulShape> {};

TEST_P(MatmulShapeSweep, AllVariantsAgreeWithReference) {
  const auto [m, k, n] = GetParam();
  common::Rng rng(m * 100 + k * 10 + n);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  expect_matrices_near(matmul(a, b), reference_matmul(a, b));
  expect_matrices_near(matmul_trans_a(a.transposed(), b), reference_matmul(a, b));
  expect_matrices_near(matmul_trans_b(a, b.transposed()), reference_matmul(a, b));
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulShapeSweep,
                         ::testing::Values(MatmulShape{1, 1, 1}, MatmulShape{1, 5, 1},
                                           MatmulShape{3, 1, 4}, MatmulShape{8, 8, 8},
                                           MatmulShape{2, 16, 3}, MatmulShape{16, 2, 16},
                                           MatmulShape{5, 7, 11}));

}  // namespace
}  // namespace goodones::nn
