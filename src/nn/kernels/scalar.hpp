// Scalar reference kernels — the lane every vector lane must match bitwise.
//
// Included only by nn/simd.cpp. The whole build uses -ffp-contract=off, so
// these loops stay plain IEEE mul/add even when the target has FMA, and the
// transcendentals are tmath's (nn/kernels/transcendental.hpp), never libm's.
// Accumulation is branchless (no zero-skip): adding an exact-zero product
// can only flip the sign of a zero partial sum, which no downstream
// comparison observes, and the straight-line loops are what lets the
// compiler autovectorize this lane too.
#pragma once

#include <cstddef>

#include "nn/kernels/transcendental.hpp"

namespace goodones::nn::simd::scalar_kernels {

inline void matmul_acc(const double* a, const double* b, double* out, std::size_t m,
                       std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* out_row = out + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = a_row[kk];
      const double* b_row = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
    }
  }
}

inline void matmul_bias(const double* a, const double* b, const double* bias, double* out,
                        std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* out_row = out + i * n;
    for (std::size_t j = 0; j < n; ++j) out_row[j] = 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = a_row[kk];
      const double* b_row = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
    }
    // Bias lands after the row's full k-accumulation: bit-identical to the
    // historical separate bias pass over a finished matmul.
    for (std::size_t j = 0; j < n; ++j) out_row[j] += bias[j];
  }
}

inline void matmul_ta_acc(const double* a, const double* b, double* out, std::size_t r,
                          std::size_t m, std::size_t n) {
  for (std::size_t kk = 0; kk < r; ++kk) {
    const double* a_row = a + kk * m;
    const double* b_row = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double aki = a_row[i];
      double* out_row = out + i * n;
      for (std::size_t j = 0; j < n; ++j) out_row[j] += aki * b_row[j];
    }
  }
}

inline void matmul_tb_acc(const double* a, const double* b, double* out, std::size_t m,
                          std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* out_row = out + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* b_row = b + j * k;
      double sum = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) sum += a_row[kk] * b_row[kk];
      out_row[j] += sum;
    }
  }
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

inline void lstm_gates(const double* pre, std::size_t h, double* cell, double* hidden) {
  tmath::lstm_gates_range(pre, h, 0, cell, hidden);
}

inline void lstm_gates_cached(const double* pre, std::size_t h, double* gi, double* gf,
                              double* gg, double* go, double* ct, double* ctt, double* ht,
                              double* cs, double* hs) {
  tmath::lstm_gates_cached_range(pre, h, 0, gi, gf, gg, go, ct, ctt, ht, cs, hs);
}

inline void tanh_n(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = tmath::tanh(x[i]);
}

inline void sigmoid_n(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = tmath::sigmoid(x[i]);
}

}  // namespace goodones::nn::simd::scalar_kernels
