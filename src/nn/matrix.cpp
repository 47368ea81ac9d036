#include "nn/matrix.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "nn/simd.hpp"

namespace goodones::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ > 0 ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    GO_EXPECTS(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

std::span<double> Matrix::row(std::size_t r) noexcept {
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const noexcept {
  return {data_.data() + r * cols_, cols_};
}

void Matrix::fill(double value) noexcept {
  for (double& x : data_) x = value;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double Matrix::squared_norm() const noexcept {
  double sum = 0.0;
  for (const double x : data_) sum += x * x;
  return sum;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  matmul_accumulate(a, b, out);
  return out;
}

Matrix matmul_trans_a(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  matmul_trans_a_accumulate(a, b, out);
  return out;
}

Matrix matmul_trans_b(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  matmul_trans_b_accumulate(a, b, out);
  return out;
}

void matmul_accumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  GO_EXPECTS(a.cols() == b.rows());
  GO_EXPECTS(out.rows() == a.rows() && out.cols() == b.cols());
  simd::active().matmul_acc(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
}

void matmul_trans_a_accumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  GO_EXPECTS(a.rows() == b.rows());
  GO_EXPECTS(out.rows() == a.cols() && out.cols() == b.cols());
  simd::active().matmul_ta_acc(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols());
}

void matmul_trans_b_accumulate(const Matrix& a, const Matrix& b, Matrix& out) {
  GO_EXPECTS(a.cols() == b.cols());
  GO_EXPECTS(out.rows() == a.rows() && out.cols() == b.rows());
  simd::active().matmul_tb_acc(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.rows());
}

Matrix matmul_bias(const Matrix& a, const Matrix& b, const Matrix& bias) {
  GO_EXPECTS(a.cols() == b.rows());
  GO_EXPECTS(bias.rows() == 1 && bias.cols() == b.cols());
  Matrix out(a.rows(), b.cols());
  simd::active().matmul_bias(a.data(), b.data(), bias.data(), out.data(), a.rows(), a.cols(),
                             b.cols());
  return out;
}

Matrix pack_step_major(std::span<const Matrix* const> blocks, std::size_t first_row,
                       std::size_t num_rows) {
  GO_EXPECTS(!blocks.empty());
  const std::size_t cols = blocks.front()->cols();
  for (const Matrix* block : blocks) {
    GO_EXPECTS(block->cols() == cols);
    GO_EXPECTS(first_row + num_rows <= block->rows());
  }
  Matrix out(num_rows * blocks.size(), cols);
  if (num_rows == 0 || cols == 0) return out;
  if (blocks.size() == 1) {
    // Single-sequence fast path: the packed layout IS the source row range.
    std::memcpy(out.data(), blocks.front()->data() + first_row * cols,
                num_rows * cols * sizeof(double));
    return out;
  }
  // The destination is written front to back in one contiguous sweep; only
  // the source pointer hops between blocks.
  double* dst = out.data();
  for (std::size_t t = 0; t < num_rows; ++t) {
    for (const Matrix* block : blocks) {
      std::memcpy(dst, block->data() + (first_row + t) * cols, cols * sizeof(double));
      dst += cols;
    }
  }
  return out;
}

void axpy(double a, std::span<const double> x, std::span<double> y) {
  GO_EXPECTS(x.size() == y.size());
  simd::active().axpy(a, x.data(), y.data(), x.size());
}

}  // namespace goodones::nn
