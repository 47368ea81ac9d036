// NEON (aarch64) kernel lane. Included only by nn/simd.cpp.
//
// Same bitwise-parity contract as the AVX2 lane: separate vmulq/vaddq (no
// vfmaq fusion), per-output-element accumulation order identical to the
// scalar loops, transcendentals through scalar libm. float64x2_t is the
// widest double vector on aarch64, so this lane is 2-wide.
#pragma once

#if defined(__aarch64__) && defined(__ARM_NEON) && !defined(GOODONES_SIMD_NO_NEON)
#define GOODONES_SIMD_HAS_NEON 1

#include <arm_neon.h>

#include <cmath>
#include <cstddef>

#include "nn/kernels/scalar.hpp"
#include "nn/kernels/transcendental.hpp"

namespace goodones::nn::simd::neon_kernels {

inline float64x2_t sigmoid2(float64x2_t x) noexcept {
  double lanes[2];
  vst1q_f64(lanes, x);
  double zbuf[2];
  tmath::libm_exp_neg_abs(lanes, zbuf, 2);
  const float64x2_t z = vld1q_f64(zbuf);
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t denom = vaddq_f64(one, z);
  const float64x2_t pos = vdivq_f64(one, denom);
  const float64x2_t neg = vdivq_f64(z, denom);
  const uint64x2_t ge = vcgeq_f64(x, vdupq_n_f64(0.0));
  return vbslq_f64(ge, pos, neg);
}

inline float64x2_t tanh2(float64x2_t x) noexcept {
  double lanes[2];
  vst1q_f64(lanes, x);
  tmath::libm_tanh_inplace(lanes, 2);
  return vld1q_f64(lanes);
}

inline void matmul_acc(const double* a, const double* b, double* out, std::size_t m,
                       std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* out_row = out + i * n;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      float64x2_t acc0 = vld1q_f64(out_row + j);
      float64x2_t acc1 = vld1q_f64(out_row + j + 2);
      float64x2_t acc2 = vld1q_f64(out_row + j + 4);
      float64x2_t acc3 = vld1q_f64(out_row + j + 6);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float64x2_t va = vdupq_n_f64(a_row[kk]);
        const double* b_row = b + kk * n + j;
        acc0 = vaddq_f64(acc0, vmulq_f64(va, vld1q_f64(b_row)));
        acc1 = vaddq_f64(acc1, vmulq_f64(va, vld1q_f64(b_row + 2)));
        acc2 = vaddq_f64(acc2, vmulq_f64(va, vld1q_f64(b_row + 4)));
        acc3 = vaddq_f64(acc3, vmulq_f64(va, vld1q_f64(b_row + 6)));
      }
      vst1q_f64(out_row + j, acc0);
      vst1q_f64(out_row + j + 2, acc1);
      vst1q_f64(out_row + j + 4, acc2);
      vst1q_f64(out_row + j + 6, acc3);
    }
    for (; j + 2 <= n; j += 2) {
      float64x2_t acc = vld1q_f64(out_row + j);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float64x2_t va = vdupq_n_f64(a_row[kk]);
        acc = vaddq_f64(acc, vmulq_f64(va, vld1q_f64(b + kk * n + j)));
      }
      vst1q_f64(out_row + j, acc);
    }
    for (; j < n; ++j) {
      double sum = out_row[j];
      for (std::size_t kk = 0; kk < k; ++kk) sum += a_row[kk] * b[kk * n + j];
      out_row[j] = sum;
    }
  }
}

inline void matmul_bias(const double* a, const double* b, const double* bias, double* out,
                        std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* out_row = out + i * n;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      float64x2_t acc = vdupq_n_f64(0.0);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float64x2_t va = vdupq_n_f64(a_row[kk]);
        acc = vaddq_f64(acc, vmulq_f64(va, vld1q_f64(b + kk * n + j)));
      }
      vst1q_f64(out_row + j, vaddq_f64(acc, vld1q_f64(bias + j)));
    }
    for (; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) sum += a_row[kk] * b[kk * n + j];
      out_row[j] = sum + bias[j];
    }
  }
}

inline void matmul_ta_acc(const double* a, const double* b, double* out, std::size_t r,
                          std::size_t m, std::size_t n) {
  for (std::size_t kk = 0; kk < r; ++kk) {
    const double* a_row = a + kk * m;
    const double* b_row = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float64x2_t va = vdupq_n_f64(a_row[i]);
      double* out_row = out + i * n;
      std::size_t j = 0;
      for (; j + 2 <= n; j += 2) {
        const float64x2_t prod = vmulq_f64(va, vld1q_f64(b_row + j));
        vst1q_f64(out_row + j, vaddq_f64(vld1q_f64(out_row + j), prod));
      }
      for (; j < n; ++j) out_row[j] += a_row[i] * b_row[j];
    }
  }
}

inline void matmul_tb_acc(const double* a, const double* b, double* out, std::size_t m,
                          std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* out_row = out + i * n;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const double* b0 = b + j * k;
      const double* b1 = b + (j + 1) * k;
      float64x2_t acc = vdupq_n_f64(0.0);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float64x2_t va = vdupq_n_f64(a_row[kk]);
        const double vb_lanes[2] = {b0[kk], b1[kk]};
        acc = vaddq_f64(acc, vmulq_f64(va, vld1q_f64(vb_lanes)));
      }
      vst1q_f64(out_row + j, vaddq_f64(vld1q_f64(out_row + j), acc));
    }
    for (; j < n; ++j) {
      const double* b_row = b + j * k;
      double sum = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) sum += a_row[kk] * b_row[kk];
      out_row[j] += sum;
    }
  }
}

inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t prod = vmulq_f64(va, vld1q_f64(x + i));
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

inline void lstm_gates(const double* pre, std::size_t h, double* cell, double* hidden) {
  std::size_t j = 0;
  for (; j + 2 <= h; j += 2) {
    const float64x2_t gi = sigmoid2(vld1q_f64(pre + j));
    const float64x2_t gf = sigmoid2(vld1q_f64(pre + h + j));
    const float64x2_t gg = tanh2(vld1q_f64(pre + 2 * h + j));
    const float64x2_t go = sigmoid2(vld1q_f64(pre + 3 * h + j));
    const float64x2_t ct =
        vaddq_f64(vmulq_f64(gf, vld1q_f64(cell + j)), vmulq_f64(gi, gg));
    vst1q_f64(cell + j, ct);
    vst1q_f64(hidden + j, vmulq_f64(go, tanh2(ct)));
  }
  tmath::lstm_gates_range(pre, h, j, cell, hidden);
}

inline void lstm_gates_cached(const double* pre, std::size_t h, double* gi, double* gf,
                              double* gg, double* go, double* ct, double* ctt, double* ht,
                              double* cs, double* hs) {
  std::size_t j = 0;
  for (; j + 2 <= h; j += 2) {
    const float64x2_t vgi = sigmoid2(vld1q_f64(pre + j));
    const float64x2_t vgf = sigmoid2(vld1q_f64(pre + h + j));
    const float64x2_t vgg = tanh2(vld1q_f64(pre + 2 * h + j));
    const float64x2_t vgo = sigmoid2(vld1q_f64(pre + 3 * h + j));
    const float64x2_t vct = vaddq_f64(vmulq_f64(vgf, vld1q_f64(cs + j)), vmulq_f64(vgi, vgg));
    const float64x2_t vctt = tanh2(vct);
    const float64x2_t vht = vmulq_f64(vgo, vctt);
    vst1q_f64(gi + j, vgi);
    vst1q_f64(gf + j, vgf);
    vst1q_f64(gg + j, vgg);
    vst1q_f64(go + j, vgo);
    vst1q_f64(ct + j, vct);
    vst1q_f64(ctt + j, vctt);
    vst1q_f64(ht + j, vht);
    vst1q_f64(cs + j, vct);
    vst1q_f64(hs + j, vht);
  }
  tmath::lstm_gates_cached_range(pre, h, j, gi, gf, gg, go, ct, ctt, ht, cs, hs);
}

// --- fast lane (Precision::kFast): 2-wide polynomial transcendentals -------
//
// Same operation sequence as tmath::fast_exp/fast_tanh/fast_sigmoid (and the
// AVX2 4-wide versions): clamp, shifter-trick reduction, Horner-with-fma
// core, two-step 2^n scaling, then overflow/underflow/NaN selects in that
// order — every op is a correctly-rounded IEEE primitive, so the fast lanes
// agree bitwise across ISAs. vfmaq_f64(a, b, c) computes a + b*c fused,
// matching the scalar std::fma.

inline float64x2_t fast_exp2(float64x2_t x) noexcept {
  float64x2_t xc = vminq_f64(x, vdupq_n_f64(tmath::kFastExpHiClamp));
  xc = vmaxq_f64(xc, vdupq_n_f64(tmath::kFastExpLoClamp));
  const float64x2_t shifter = vdupq_n_f64(tmath::kFastExpShifter);
  const float64x2_t nd =
      vsubq_f64(vfmaq_f64(shifter, xc, vdupq_n_f64(tmath::kFastExpLog2e)), shifter);
  float64x2_t r = vfmaq_f64(xc, nd, vdupq_n_f64(-tmath::kFastExpLn2Hi));
  r = vfmaq_f64(r, nd, vdupq_n_f64(-tmath::kFastExpLn2Lo));
  float64x2_t p = vdupq_n_f64(tmath::kFastExpPoly[0]);
  for (std::size_t i = 1; i < sizeof(tmath::kFastExpPoly) / sizeof(double); ++i) {
    p = vfmaq_f64(vdupq_n_f64(tmath::kFastExpPoly[i]), p, r);
  }
  const int64x2_t n = vcvtq_s64_f64(nd);  // nd is an exact integer
  const int64x2_t n1 = vshrq_n_s64(n, 1);
  const int64x2_t n2 = vsubq_s64(n, n1);
  const int64x2_t bias = vdupq_n_s64(1023);
  const float64x2_t scale1 = vreinterpretq_f64_s64(vshlq_n_s64(vaddq_s64(n1, bias), 52));
  const float64x2_t scale2 = vreinterpretq_f64_s64(vshlq_n_s64(vaddq_s64(n2, bias), 52));
  float64x2_t result = vmulq_f64(vmulq_f64(p, scale1), scale2);
  result = vbslq_f64(vcgtq_f64(x, vdupq_n_f64(tmath::kFastExpOverflow)),
                     vdupq_n_f64(std::numeric_limits<double>::infinity()), result);
  result = vbslq_f64(vcltq_f64(x, vdupq_n_f64(tmath::kFastExpUnderflow)), vdupq_n_f64(0.0),
                     result);
  result = vbslq_f64(vceqq_f64(x, x), result, x);
  return result;
}

inline float64x2_t fast_tanh2(float64x2_t x) noexcept {
  const float64x2_t ax = vabsq_f64(x);
  const float64x2_t u = vaddq_f64(ax, ax);
  float64x2_t q = vdupq_n_f64(tmath::kFastExpm1Poly[0]);
  for (std::size_t i = 1; i < sizeof(tmath::kFastExpm1Poly) / sizeof(double); ++i) {
    q = vfmaq_f64(vdupq_n_f64(tmath::kFastExpm1Poly[i]), q, u);
  }
  const float64x2_t p_small = vmulq_f64(u, q);
  const float64x2_t p_big = vsubq_f64(fast_exp2(u), vdupq_n_f64(1.0));
  const float64x2_t p =
      vbslq_f64(vcltq_f64(ax, vdupq_n_f64(tmath::kFastTanhSmall)), p_small, p_big);
  float64x2_t r = vdivq_f64(p, vaddq_f64(p, vdupq_n_f64(2.0)));
  r = vbslq_f64(vcgeq_f64(ax, vdupq_n_f64(tmath::kFastTanhSaturate)), vdupq_n_f64(1.0), r);
  const uint64x2_t sign =
      vandq_u64(vreinterpretq_u64_f64(x), vdupq_n_u64(0x8000000000000000ULL));
  r = vreinterpretq_f64_u64(vorrq_u64(vreinterpretq_u64_f64(r), sign));  // r >= 0
  r = vbslq_f64(vceqq_f64(x, x), r, x);
  return r;
}

inline float64x2_t fast_sigmoid2(float64x2_t x) noexcept {
  const float64x2_t z = fast_exp2(vnegq_f64(vabsq_f64(x)));
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t denom = vaddq_f64(one, z);
  const float64x2_t pos = vdivq_f64(one, denom);
  const float64x2_t neg = vdivq_f64(z, denom);
  return vbslq_f64(vcgeq_f64(x, vdupq_n_f64(0.0)), pos, neg);
}

inline void lstm_gates_fast(const double* pre, std::size_t h, double* cell, double* hidden) {
  std::size_t j = 0;
  for (; j + 2 <= h; j += 2) {
    const float64x2_t gi = fast_sigmoid2(vld1q_f64(pre + j));
    const float64x2_t gf = fast_sigmoid2(vld1q_f64(pre + h + j));
    const float64x2_t gg = fast_tanh2(vld1q_f64(pre + 2 * h + j));
    const float64x2_t go = fast_sigmoid2(vld1q_f64(pre + 3 * h + j));
    const float64x2_t ct = vfmaq_f64(vmulq_f64(gi, gg), gf, vld1q_f64(cell + j));
    vst1q_f64(cell + j, ct);
    vst1q_f64(hidden + j, vmulq_f64(go, fast_tanh2(ct)));
  }
  tmath::lstm_gates_fast_range(pre, h, j, cell, hidden);
}

inline void fast_exp_n(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) vst1q_f64(out + i, fast_exp2(vld1q_f64(x + i)));
  for (; i < n; ++i) out[i] = tmath::fast_exp(x[i]);
}

inline void fast_tanh_n(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) vst1q_f64(out + i, fast_tanh2(vld1q_f64(x + i)));
  for (; i < n; ++i) out[i] = tmath::fast_tanh(x[i]);
}

inline void fast_sigmoid_n(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) vst1q_f64(out + i, fast_sigmoid2(vld1q_f64(x + i)));
  for (; i < n; ++i) out[i] = tmath::fast_sigmoid(x[i]);
}

}  // namespace goodones::nn::simd::neon_kernels

#endif  // aarch64 with NEON
