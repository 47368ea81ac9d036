// Shared transcendental math for the SIMD kernel lanes. Included by the
// kernel headers that nn/simd.cpp pulls in, and by nn_simd_test for the
// exact sigmoid its ulp sweep compares against.
//
// Two families live here:
//
//  1. The PARITY lane's scalar-libm helpers: the exact sign-split sigmoid,
//     the spill-to-buffer loops the vector lanes use to route exp/tanh
//     through glibc, and the exact gate-math range loops that serve both as
//     the scalar kernels (full range) and as the ragged tails of the vector
//     kernels. One definition keeps every lane's libm arguments identical,
//     which is what the bitwise parity contract rests on.
//
//  2. The FAST lane (Precision::kFast): range-reduced polynomial
//     exp/tanh/sigmoid with explicit FMA. This lane is OUTSIDE the bitwise
//     parity-with-libm contract — it trades a few ulp for keeping the whole
//     gate row-step in vector registers. It keeps a weaker invariant
//     instead: every op is a correctly-rounded IEEE primitive (fma, mul,
//     add, div) applied in the same order on every lane, so the scalar and
//     AVX2 fast kernels agree bitwise WITH EACH OTHER even though neither
//     matches glibc. Accuracy bounds (measured by the
//     nn_simd_test ulp sweep): exp <= 2 ulp over the full finite range;
//     tanh/sigmoid <= 4 ulp (the p/(p+2) and 1/(1+z) forms amplify the exp
//     error by at most ~2x near the small-argument branch boundary).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace goodones::nn::simd::tmath {

// --- parity lane: shared scalar-libm helpers --------------------------------

/// Sign-split sigmoid, same formulation as nn::sigmoid (activations.hpp):
/// the exp argument is -|x| in both branches, one correctly-rounded libm
/// call serves positive and negative inputs alike.
inline double libm_sigmoid(double x) noexcept {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

/// z[l] = exp(-|x[l]|) through scalar libm — the spill loop of the AVX2
/// (w=4) vector sigmoid.
inline void libm_exp_neg_abs(const double* x, double* z, std::size_t w) noexcept {
  for (std::size_t l = 0; l < w; ++l) z[l] = std::exp(-std::fabs(x[l]));
}

/// lanes[l] = tanh(lanes[l]) through scalar libm — shared spill loop of the
/// vector tanh helpers.
inline void libm_tanh_inplace(double* lanes, std::size_t w) noexcept {
  for (std::size_t l = 0; l < w; ++l) lanes[l] = std::tanh(lanes[l]);
}

/// Exact LSTM gate math over rows [j0, h). With j0 = 0 this IS the scalar
/// lstm_gates kernel; the vector lanes call it with j0 at their ragged tail.
inline void lstm_gates_range(const double* pre, std::size_t h, std::size_t j0, double* cell,
                             double* hidden) noexcept {
  for (std::size_t j = j0; j < h; ++j) {
    const double gi = libm_sigmoid(pre[j]);
    const double gf = libm_sigmoid(pre[h + j]);
    const double gg = std::tanh(pre[2 * h + j]);
    const double go = libm_sigmoid(pre[3 * h + j]);
    const double ct = gf * cell[j] + gi * gg;
    cell[j] = ct;
    hidden[j] = go * std::tanh(ct);
  }
}

/// Exact cache-filling gate math over rows [j0, h); same sharing scheme.
inline void lstm_gates_cached_range(const double* pre, std::size_t h, std::size_t j0,
                                    double* gi, double* gf, double* gg, double* go, double* ct,
                                    double* ctt, double* ht, double* cs, double* hs) noexcept {
  for (std::size_t j = j0; j < h; ++j) {
    gi[j] = libm_sigmoid(pre[j]);
    gf[j] = libm_sigmoid(pre[h + j]);
    gg[j] = std::tanh(pre[2 * h + j]);
    go[j] = libm_sigmoid(pre[3 * h + j]);
    ct[j] = gf[j] * cs[j] + gi[j] * gg[j];
    ctt[j] = std::tanh(ct[j]);
    ht[j] = go[j] * ctt[j];
    cs[j] = ct[j];
    hs[j] = ht[j];
  }
}

// --- fast lane: polynomial exp/tanh/sigmoid ---------------------------------
//
// exp: Cody-Waite reduction x = n*ln2 + r, |r| <= ln2/2, n recovered via the
// round-to-nearest shifter trick; degree-13 Taylor core (truncation ~4e-18,
// well under half an ulp); 2^n reconstructed in two half-steps so outputs
// denormalize gracefully instead of flushing at the 2^-1022 scale boundary.

inline constexpr double kFastExpLog2e = 1.4426950408889634074;
inline constexpr double kFastExpLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kFastExpLn2Lo = 1.90821492927058770002e-10;
// 1.5 * 2^52: adding then subtracting rounds to the nearest integer and
// leaves that integer in the low mantissa bits of the intermediate sum.
inline constexpr double kFastExpShifter = 6755399441055744.0;
// Clamp bounds keep |n| small enough for the two-step 2^n reconstruction;
// true out-of-range behavior is restored by the final selects.
inline constexpr double kFastExpHiClamp = 710.0;
inline constexpr double kFastExpLoClamp = -746.0;
inline constexpr double kFastExpOverflow = 709.782712893384;     // exp(x) = +inf above
inline constexpr double kFastExpUnderflow = -745.13321910194110842;  // exp(x) = 0 below

/// exp(r) Taylor coefficients 1/k!, k = 13 .. 0, Horner order.
inline constexpr double kFastExpPoly[] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0, 1.0 / 3628800.0,
    1.0 / 362880.0,     1.0 / 40320.0,     1.0 / 5040.0,     1.0 / 720.0,
    1.0 / 120.0,        1.0 / 24.0,        1.0 / 6.0,        1.0 / 2.0,
    1.0,                1.0,
};

/// expm1(u)/u Taylor coefficients 1/(k+1)!, k = 14 .. 0, Horner order —
/// the cancellation-free small-argument branch of fast_tanh (u = 2|x| in
/// [0, 0.5), truncation ~1e-18 relative).
inline constexpr double kFastExpm1Poly[] = {
    1.0 / 1307674368000.0, 1.0 / 87178291200.0, 1.0 / 6227020800.0, 1.0 / 479001600.0,
    1.0 / 39916800.0,      1.0 / 3628800.0,     1.0 / 362880.0,     1.0 / 40320.0,
    1.0 / 5040.0,          1.0 / 720.0,         1.0 / 120.0,        1.0 / 24.0,
    1.0 / 6.0,             1.0 / 2.0,           1.0,
};

/// |x| below which fast_tanh switches to the expm1 polynomial (u = 2|x|
/// stays within the polynomial's [0, 0.5) domain).
inline constexpr double kFastTanhSmall = 0.25;
/// |x| at and above which tanh(x) rounds to exactly 1.0 in double.
inline constexpr double kFastTanhSaturate = 19.0625;

/// Builds 2^e for |e| <= 1023 straight from the exponent bit field.
inline double fast_pow2(std::int64_t e) noexcept {
  double out;
  const std::uint64_t bits = static_cast<std::uint64_t>(e + 1023) << 52;
  __builtin_memcpy(&out, &bits, sizeof(out));
  return out;
}

/// Polynomial exp. Same operation sequence as the vector versions — the
/// clamp, reduction, Horner chain, two-step scaling, and the three trailing
/// selects (overflow, underflow, NaN) appear in identical order so scalar
/// and vector fast lanes agree bitwise.
inline double fast_exp(double x) noexcept {
  // min/max with the vector lanes' operand order (NaN falls through to the
  // clamp value; the final select restores it).
  double xc = x < kFastExpHiClamp ? x : kFastExpHiClamp;
  xc = xc > kFastExpLoClamp ? xc : kFastExpLoClamp;
  const double shifted = std::fma(xc, kFastExpLog2e, kFastExpShifter);
  const double nd = shifted - kFastExpShifter;
  double r = std::fma(nd, -kFastExpLn2Hi, xc);
  r = std::fma(nd, -kFastExpLn2Lo, r);
  double p = kFastExpPoly[0];
  for (std::size_t i = 1; i < sizeof(kFastExpPoly) / sizeof(double); ++i) {
    p = std::fma(p, r, kFastExpPoly[i]);
  }
  const auto n = static_cast<std::int64_t>(nd);
  const std::int64_t n1 = n >> 1;  // floor halves, matching the vector shifts
  const std::int64_t n2 = n - n1;
  double result = (p * fast_pow2(n1)) * fast_pow2(n2);
  if (x > kFastExpOverflow) result = std::numeric_limits<double>::infinity();
  if (x < kFastExpUnderflow) result = 0.0;
  if (x != x) result = x;
  return result;
}

/// Polynomial tanh: sign(x) * p/(p+2) with p = expm1(2|x|) — the expm1
/// polynomial below the branch point (no cancellation), fast_exp(u)-1 above
/// it, saturating to exactly +/-1 past kFastTanhSaturate.
inline double fast_tanh(double x) noexcept {
  const double ax = std::fabs(x);
  const double u = ax + ax;
  double p;
  if (ax < kFastTanhSmall) {
    double q = kFastExpm1Poly[0];
    for (std::size_t i = 1; i < sizeof(kFastExpm1Poly) / sizeof(double); ++i) {
      q = std::fma(q, u, kFastExpm1Poly[i]);
    }
    p = u * q;
  } else {
    p = fast_exp(u) - 1.0;
  }
  double r = p / (p + 2.0);
  if (ax >= kFastTanhSaturate) r = 1.0;
  r = std::copysign(r, x);
  if (x != x) r = x;
  return r;
}

/// Polynomial sigmoid, same sign-split form as libm_sigmoid but through
/// fast_exp: z = exp(-|x|), then 1/(1+z) or z/(1+z) by sign.
inline double fast_sigmoid(double x) noexcept {
  const double z = fast_exp(-std::fabs(x));
  const double denom = 1.0 + z;
  return x >= 0.0 ? 1.0 / denom : z / denom;
}

/// Fast-lane LSTM gate math over rows [j0, h). With j0 = 0 this is the
/// scalar lstm_gates_fast kernel; vector lanes call it for ragged tails.
/// Unlike the exact lane, the cell update may fuse (fma), matching the
/// AVX2 lane's fmadd — the fast lane's own cross-ISA bitwise contract.
inline void lstm_gates_fast_range(const double* pre, std::size_t h, std::size_t j0,
                                  double* cell, double* hidden) noexcept {
  for (std::size_t j = j0; j < h; ++j) {
    const double gi = fast_sigmoid(pre[j]);
    const double gf = fast_sigmoid(pre[h + j]);
    const double gg = fast_tanh(pre[2 * h + j]);
    const double go = fast_sigmoid(pre[3 * h + j]);
    const double ct = std::fma(gf, cell[j], gi * gg);
    cell[j] = ct;
    hidden[j] = go * fast_tanh(ct);
  }
}

}  // namespace goodones::nn::simd::tmath
