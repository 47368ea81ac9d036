// Dense row-major matrix used by the neural-network substrate.
//
// This is deliberately a small, explicit linear-algebra core (no expression
// templates, no BLAS dependency). The matmul variants needed by
// backpropagation (A*B, A^T*B, A*B^T) are provided directly instead of
// materializing transposes; their inner loops dispatch through the nn::simd
// kernel table (see nn/simd.hpp), whose vector lanes are bitwise-identical
// to the scalar lane, so callers never observe which lane ran.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace goodones::nn {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, double value);

  /// Construction from nested initializer list (row-major), for tests.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

  /// Mutable/const view of a single row.
  std::span<double> row(std::size_t r) noexcept;
  std::span<const double> row(std::size_t r) const noexcept;

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  void fill(double value) noexcept;
  void set_zero() noexcept { fill(0.0); }

  /// Scales every entry in place.
  Matrix& operator*=(double scalar) noexcept;

  Matrix transposed() const;

  /// Frobenius norm squared (sum of squares of all entries).
  double squared_norm() const noexcept;

  bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// out = a * b. Shapes: (m x k) * (k x n) -> (m x n).
Matrix matmul(const Matrix& a, const Matrix& b);

/// out = a^T * b. Shapes: (k x m)^T * (k x n) -> (m x n).
Matrix matmul_trans_a(const Matrix& a, const Matrix& b);

/// out = a * b^T. Shapes: (m x k) * (n x k)^T -> (m x n).
Matrix matmul_trans_b(const Matrix& a, const Matrix& b);

/// out += a * b (accumulating variant; out must already be (m x n)).
void matmul_accumulate(const Matrix& a, const Matrix& b, Matrix& out);

/// out += a^T * b.
void matmul_trans_a_accumulate(const Matrix& a, const Matrix& b, Matrix& out);

/// out += a * b^T.
void matmul_trans_b_accumulate(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * b with `bias` (1 x n) added to every output row. Batched
/// projection-with-bias: one call projects a whole packed batch through a
/// shared weight matrix (the batched LSTM input projection).
Matrix matmul_bias(const Matrix& a, const Matrix& b, const Matrix& bias);

/// Packs the same row range of B equal-shape matrices step-major: output row
/// (t * B + i) is blocks[i]->row(first_row + t) for t in [0, num_rows). This
/// is the packed batch layout consumed by Lstm::run_batch — rows of one
/// timestep sit contiguously, so a single matmul over the packed matrix
/// projects every sequence's inputs at once and per-step processing streams
/// a contiguous (B x n) block. The blocks are pointers, so a prefix-cluster
/// merge gathers members scattered across the caller's storage without
/// copying them into a temporary vector first.
Matrix pack_step_major(std::span<const Matrix* const> blocks, std::size_t first_row,
                       std::size_t num_rows);

/// y = a*x + y over raw spans (vector axpy helper used by layer code).
void axpy(double a, std::span<const double> x, std::span<double> y);

}  // namespace goodones::nn
