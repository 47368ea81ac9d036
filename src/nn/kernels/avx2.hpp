// AVX2 kernel lane. Included only by nn/simd.cpp.
//
// Compiled via per-function `target("avx2")` attributes so the rest of the
// binary keeps the baseline ISA and the lane can be selected at runtime.
// Bitwise parity with the scalar lane is a hard contract here:
//   - multiplies and adds stay separate (_mm256_mul_pd + _mm256_add_pd,
//     never _mm256_fmadd_pd),
//   - every output element's partial sums arrive in the same order as the
//     scalar loops (vector lanes only ever parallelize independent output
//     elements),
//   - exp/tanh go through scalar libm per lane; only the IEEE
//     correctly-rounded surrounding arithmetic (div, mul, add) vectorizes.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__)
#define GOODONES_SIMD_HAS_AVX2 1

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "nn/kernels/scalar.hpp"
#include "nn/kernels/transcendental.hpp"

namespace goodones::nn::simd::avx2_kernels {

#define GOODONES_AVX2 __attribute__((target("avx2")))
// The fast-math lane is allowed (required, for cross-lane bitwise identity
// with the scalar fast kernels' std::fma) to use fused multiply-add, so its
// kernels carry the fma target on top of avx2. isa_runnable gates the whole
// AVX2 table on both cpuid bits.
#define GOODONES_AVX2_FMA __attribute__((target("avx2,fma")))

/// 4-lane sigmoid matching the scalar sign-split form bit for bit: the exp
/// argument is -|x| in both branches (identical to -x for x >= 0 and to x
/// for x < 0), so one scalar-exp call per lane serves both, and the final
/// select picks 1/(1+z) vs z/(1+z) exactly as the scalar branch does.
GOODONES_AVX2 inline __m256d sigmoid4(__m256d x) noexcept {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, x);
  alignas(32) double zbuf[4];
  tmath::libm_exp_neg_abs(lanes, zbuf, 4);
  const __m256d z = _mm256_load_pd(zbuf);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d denom = _mm256_add_pd(one, z);
  const __m256d pos = _mm256_div_pd(one, denom);
  const __m256d neg = _mm256_div_pd(z, denom);
  const __m256d ge = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_GE_OQ);
  return _mm256_blendv_pd(neg, pos, ge);
}

GOODONES_AVX2 inline __m256d tanh4(__m256d x) noexcept {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, x);
  tmath::libm_tanh_inplace(lanes, 4);
  return _mm256_load_pd(lanes);
}

GOODONES_AVX2 inline void matmul_acc(const double* a, const double* b, double* out,
                                     std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* out_row = out + i * n;
    std::size_t j = 0;
    // Register-blocked columns: four accumulators live across the whole k
    // loop, so out traffic drops k-fold while each element still sums its
    // products in ascending k order.
    for (; j + 16 <= n; j += 16) {
      __m256d acc0 = _mm256_loadu_pd(out_row + j);
      __m256d acc1 = _mm256_loadu_pd(out_row + j + 4);
      __m256d acc2 = _mm256_loadu_pd(out_row + j + 8);
      __m256d acc3 = _mm256_loadu_pd(out_row + j + 12);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256d va = _mm256_set1_pd(a_row[kk]);
        const double* b_row = b + kk * n + j;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(va, _mm256_loadu_pd(b_row)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(va, _mm256_loadu_pd(b_row + 4)));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(va, _mm256_loadu_pd(b_row + 8)));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(va, _mm256_loadu_pd(b_row + 12)));
      }
      _mm256_storeu_pd(out_row + j, acc0);
      _mm256_storeu_pd(out_row + j + 4, acc1);
      _mm256_storeu_pd(out_row + j + 8, acc2);
      _mm256_storeu_pd(out_row + j + 12, acc3);
    }
    for (; j + 4 <= n; j += 4) {
      __m256d acc = _mm256_loadu_pd(out_row + j);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256d va = _mm256_set1_pd(a_row[kk]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, _mm256_loadu_pd(b + kk * n + j)));
      }
      _mm256_storeu_pd(out_row + j, acc);
    }
    for (; j < n; ++j) {
      double sum = out_row[j];
      for (std::size_t kk = 0; kk < k; ++kk) sum += a_row[kk] * b[kk * n + j];
      out_row[j] = sum;
    }
  }
}

GOODONES_AVX2 inline void matmul_bias(const double* a, const double* b, const double* bias,
                                      double* out, std::size_t m, std::size_t k,
                                      std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* out_row = out + i * n;
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256d va = _mm256_set1_pd(a_row[kk]);
        const double* b_row = b + kk * n + j;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(va, _mm256_loadu_pd(b_row)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(va, _mm256_loadu_pd(b_row + 4)));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(va, _mm256_loadu_pd(b_row + 8)));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(va, _mm256_loadu_pd(b_row + 12)));
      }
      _mm256_storeu_pd(out_row + j, _mm256_add_pd(acc0, _mm256_loadu_pd(bias + j)));
      _mm256_storeu_pd(out_row + j + 4, _mm256_add_pd(acc1, _mm256_loadu_pd(bias + j + 4)));
      _mm256_storeu_pd(out_row + j + 8, _mm256_add_pd(acc2, _mm256_loadu_pd(bias + j + 8)));
      _mm256_storeu_pd(out_row + j + 12, _mm256_add_pd(acc3, _mm256_loadu_pd(bias + j + 12)));
    }
    for (; j + 4 <= n; j += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256d va = _mm256_set1_pd(a_row[kk]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, _mm256_loadu_pd(b + kk * n + j)));
      }
      _mm256_storeu_pd(out_row + j, _mm256_add_pd(acc, _mm256_loadu_pd(bias + j)));
    }
    for (; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) sum += a_row[kk] * b[kk * n + j];
      out_row[j] = sum + bias[j];
    }
  }
}

GOODONES_AVX2 inline void matmul_ta_acc(const double* a, const double* b, double* out,
                                        std::size_t r, std::size_t m, std::size_t n) {
  for (std::size_t kk = 0; kk < r; ++kk) {
    const double* a_row = a + kk * m;
    const double* b_row = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const __m256d va = _mm256_set1_pd(a_row[i]);
      double* out_row = out + i * n;
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(b_row + j));
        _mm256_storeu_pd(out_row + j, _mm256_add_pd(_mm256_loadu_pd(out_row + j), prod));
      }
      for (; j < n; ++j) out_row[j] += a_row[i] * b_row[j];
    }
  }
}

GOODONES_AVX2 inline void matmul_tb_acc(const double* a, const double* b, double* out,
                                        std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* out_row = out + i * n;
    std::size_t j = 0;
    // Four dot products at once, one per lane; each lane's sum still grows
    // in ascending k order, exactly like one scalar dot product.
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + j * k;
      const double* b1 = b + (j + 1) * k;
      const double* b2 = b + (j + 2) * k;
      const double* b3 = b + (j + 3) * k;
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256d va = _mm256_set1_pd(a_row[kk]);
        const __m256d vb = _mm256_set_pd(b3[kk], b2[kk], b1[kk], b0[kk]);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
      }
      _mm256_storeu_pd(out_row + j, _mm256_add_pd(_mm256_loadu_pd(out_row + j), acc));
    }
    for (; j < n; ++j) {
      const double* b_row = b + j * k;
      double sum = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) sum += a_row[kk] * b_row[kk];
      out_row[j] += sum;
    }
  }
}

GOODONES_AVX2 inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

GOODONES_AVX2 inline void lstm_gates(const double* pre, std::size_t h, double* cell,
                                     double* hidden) {
  std::size_t j = 0;
  for (; j + 4 <= h; j += 4) {
    const __m256d gi = sigmoid4(_mm256_loadu_pd(pre + j));
    const __m256d gf = sigmoid4(_mm256_loadu_pd(pre + h + j));
    const __m256d gg = tanh4(_mm256_loadu_pd(pre + 2 * h + j));
    const __m256d go = sigmoid4(_mm256_loadu_pd(pre + 3 * h + j));
    const __m256d ct =
        _mm256_add_pd(_mm256_mul_pd(gf, _mm256_loadu_pd(cell + j)), _mm256_mul_pd(gi, gg));
    _mm256_storeu_pd(cell + j, ct);
    _mm256_storeu_pd(hidden + j, _mm256_mul_pd(go, tanh4(ct)));
  }
  tmath::lstm_gates_range(pre, h, j, cell, hidden);
}

GOODONES_AVX2 inline void lstm_gates_cached(const double* pre, std::size_t h, double* gi,
                                            double* gf, double* gg, double* go, double* ct,
                                            double* ctt, double* ht, double* cs, double* hs) {
  std::size_t j = 0;
  for (; j + 4 <= h; j += 4) {
    const __m256d vgi = sigmoid4(_mm256_loadu_pd(pre + j));
    const __m256d vgf = sigmoid4(_mm256_loadu_pd(pre + h + j));
    const __m256d vgg = tanh4(_mm256_loadu_pd(pre + 2 * h + j));
    const __m256d vgo = sigmoid4(_mm256_loadu_pd(pre + 3 * h + j));
    const __m256d vct =
        _mm256_add_pd(_mm256_mul_pd(vgf, _mm256_loadu_pd(cs + j)), _mm256_mul_pd(vgi, vgg));
    const __m256d vctt = tanh4(vct);
    const __m256d vht = _mm256_mul_pd(vgo, vctt);
    _mm256_storeu_pd(gi + j, vgi);
    _mm256_storeu_pd(gf + j, vgf);
    _mm256_storeu_pd(gg + j, vgg);
    _mm256_storeu_pd(go + j, vgo);
    _mm256_storeu_pd(ct + j, vct);
    _mm256_storeu_pd(ctt + j, vctt);
    _mm256_storeu_pd(ht + j, vht);
    _mm256_storeu_pd(cs + j, vct);
    _mm256_storeu_pd(hs + j, vht);
  }
  tmath::lstm_gates_cached_range(pre, h, j, gi, gf, gg, go, ct, ctt, ht, cs, hs);
}

// --- fast lane (Precision::kFast): 4-wide polynomial transcendentals -------
//
// Same operation sequence as tmath::fast_exp/fast_tanh/fast_sigmoid — clamp,
// shifter-trick reduction, Horner-with-fma core, two-step 2^n scaling, then
// overflow/underflow/NaN selects in that order — so the four lanes land
// bitwise identical to the scalar fast lane.

GOODONES_AVX2_FMA inline __m256d fast_exp4(__m256d x) noexcept {
  __m256d xc = _mm256_min_pd(x, _mm256_set1_pd(tmath::kFastExpHiClamp));
  xc = _mm256_max_pd(xc, _mm256_set1_pd(tmath::kFastExpLoClamp));
  const __m256d shifter = _mm256_set1_pd(tmath::kFastExpShifter);
  const __m256d nd = _mm256_sub_pd(
      _mm256_fmadd_pd(xc, _mm256_set1_pd(tmath::kFastExpLog2e), shifter), shifter);
  __m256d r = _mm256_fmadd_pd(nd, _mm256_set1_pd(-tmath::kFastExpLn2Hi), xc);
  r = _mm256_fmadd_pd(nd, _mm256_set1_pd(-tmath::kFastExpLn2Lo), r);
  __m256d p = _mm256_set1_pd(tmath::kFastExpPoly[0]);
  for (std::size_t i = 1; i < sizeof(tmath::kFastExpPoly) / sizeof(double); ++i) {
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(tmath::kFastExpPoly[i]));
  }
  // Two-step 2^n from the (exact-integer) nd: n fits in int32 after the
  // clamp, and the halves' floor division matches the scalar n >> 1.
  const __m128i n32 = _mm256_cvtpd_epi32(nd);
  const __m128i n1 = _mm_srai_epi32(n32, 1);
  const __m128i n2 = _mm_sub_epi32(n32, n1);
  const __m256i bias = _mm256_set1_epi64x(1023);
  const __m256d scale1 = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_add_epi64(_mm256_cvtepi32_epi64(n1), bias), 52));
  const __m256d scale2 = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_add_epi64(_mm256_cvtepi32_epi64(n2), bias), 52));
  __m256d result = _mm256_mul_pd(_mm256_mul_pd(p, scale1), scale2);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  result = _mm256_blendv_pd(
      result, inf, _mm256_cmp_pd(x, _mm256_set1_pd(tmath::kFastExpOverflow), _CMP_GT_OQ));
  result = _mm256_blendv_pd(
      result, _mm256_setzero_pd(),
      _mm256_cmp_pd(x, _mm256_set1_pd(tmath::kFastExpUnderflow), _CMP_LT_OQ));
  result = _mm256_blendv_pd(result, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
  return result;
}

GOODONES_AVX2_FMA inline __m256d fast_tanh4(__m256d x) noexcept {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d ax = _mm256_andnot_pd(sign_mask, x);
  const __m256d u = _mm256_add_pd(ax, ax);
  __m256d q = _mm256_set1_pd(tmath::kFastExpm1Poly[0]);
  for (std::size_t i = 1; i < sizeof(tmath::kFastExpm1Poly) / sizeof(double); ++i) {
    q = _mm256_fmadd_pd(q, u, _mm256_set1_pd(tmath::kFastExpm1Poly[i]));
  }
  const __m256d p_small = _mm256_mul_pd(u, q);
  const __m256d p_big = _mm256_sub_pd(fast_exp4(u), _mm256_set1_pd(1.0));
  const __m256d small =
      _mm256_cmp_pd(ax, _mm256_set1_pd(tmath::kFastTanhSmall), _CMP_LT_OQ);
  const __m256d p = _mm256_blendv_pd(p_big, p_small, small);
  __m256d r = _mm256_div_pd(p, _mm256_add_pd(p, _mm256_set1_pd(2.0)));
  r = _mm256_blendv_pd(
      r, _mm256_set1_pd(1.0),
      _mm256_cmp_pd(ax, _mm256_set1_pd(tmath::kFastTanhSaturate), _CMP_GE_OQ));
  r = _mm256_or_pd(r, _mm256_and_pd(sign_mask, x));  // r >= 0: OR == copysign
  r = _mm256_blendv_pd(r, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
  return r;
}

GOODONES_AVX2_FMA inline __m256d fast_sigmoid4(__m256d x) noexcept {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d z = fast_exp4(_mm256_or_pd(_mm256_andnot_pd(sign_mask, x), sign_mask));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d denom = _mm256_add_pd(one, z);
  const __m256d pos = _mm256_div_pd(one, denom);
  const __m256d neg = _mm256_div_pd(z, denom);
  const __m256d ge = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_GE_OQ);
  return _mm256_blendv_pd(neg, pos, ge);
}

GOODONES_AVX2_FMA inline void lstm_gates_fast(const double* pre, std::size_t h, double* cell,
                                              double* hidden) {
  std::size_t j = 0;
  for (; j + 4 <= h; j += 4) {
    const __m256d gi = fast_sigmoid4(_mm256_loadu_pd(pre + j));
    const __m256d gf = fast_sigmoid4(_mm256_loadu_pd(pre + h + j));
    const __m256d gg = fast_tanh4(_mm256_loadu_pd(pre + 2 * h + j));
    const __m256d go = fast_sigmoid4(_mm256_loadu_pd(pre + 3 * h + j));
    const __m256d ct = _mm256_fmadd_pd(gf, _mm256_loadu_pd(cell + j), _mm256_mul_pd(gi, gg));
    _mm256_storeu_pd(cell + j, ct);
    _mm256_storeu_pd(hidden + j, _mm256_mul_pd(go, fast_tanh4(ct)));
  }
  tmath::lstm_gates_fast_range(pre, h, j, cell, hidden);
}

GOODONES_AVX2_FMA inline void fast_exp_n(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(out + i, fast_exp4(_mm256_loadu_pd(x + i)));
  for (; i < n; ++i) out[i] = tmath::fast_exp(x[i]);
}

GOODONES_AVX2_FMA inline void fast_tanh_n(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(out + i, fast_tanh4(_mm256_loadu_pd(x + i)));
  for (; i < n; ++i) out[i] = tmath::fast_tanh(x[i]);
}

GOODONES_AVX2_FMA inline void fast_sigmoid_n(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(out + i, fast_sigmoid4(_mm256_loadu_pd(x + i)));
  for (; i < n; ++i) out[i] = tmath::fast_sigmoid(x[i]);
}

#undef GOODONES_AVX2
#undef GOODONES_AVX2_FMA

}  // namespace goodones::nn::simd::avx2_kernels

#endif  // x86-64 gcc/clang
