// The repository's one set of transcendentals: exp, tanh and sigmoid, plus
// the LSTM gate math built on them. Included by the kernel headers that
// nn/simd.cpp pulls in, by nn/activations.hpp, and by nn_simd_test for its
// accuracy sweep.
//
// Every function here is a fixed sequence of correctly-rounded IEEE
// operations (mul, add, sub, div, compare/select) with no fused
// multiply-add and no libm call. The whole build uses -ffp-contract=off, so
// the compiler performs exactly these operations in this order, and the
// AVX2 lane (nn/kernels/avx2.hpp) performs the same ones four lanes at a
// time. Both lanes therefore agree bitwise, and so do builds on any
// IEEE-754 target, whatever its C library: the training pins depend on
// this file, not on glibc's rounding.
//
// Accuracy, derived from this formulation in nn_simd_test, whose
// long-double sweep checks it on every runnable lane: exp within 2 ulp over
// its whole range, sigmoid within 4 ulp and tanh within 6 ulp.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace goodones::nn::simd::tmath {

// exp: Cody-Waite reduction x = n*ln2 + r, |r| <= ln2/2 (plus rounding),
// n recovered with the round-to-nearest shifter trick; degree-13 Taylor
// core in Horner form (truncation below 4e-18 relative); 2^n rebuilt in two
// half-steps so results denormalize gradually instead of flushing at the
// 2^-1022 scale boundary.

inline constexpr double kExpLog2e = 1.4426950408889634074;
// ln2 split so that n * kExpLn2Hi is exact for |n| < 2^21 (the low 21
// mantissa bits of kExpLn2Hi are zero): x - n*ln2hi is then exact, and only
// the small n*ln2lo correction rounds.
inline constexpr double kExpLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kExpLn2Lo = 1.90821492927058770002e-10;
// 1.5 * 2^52: adding then subtracting rounds to the nearest integer.
inline constexpr double kExpShifter = 6755399441055744.0;
// Clamp bounds keep |n| small enough for the two-step 2^n reconstruction;
// true out-of-range behavior is restored by the final selects.
inline constexpr double kExpHiClamp = 710.0;
inline constexpr double kExpLoClamp = -746.0;
inline constexpr double kExpOverflow = 709.782712893384;          // exp(x) = +inf above
inline constexpr double kExpUnderflow = -745.13321910194110842;  // exp(x) = 0 below

/// exp(r) Taylor coefficients 1/k!, k = 13 .. 0, Horner order.
inline constexpr double kExpPoly[] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0, 1.0 / 3628800.0,
    1.0 / 362880.0,     1.0 / 40320.0,     1.0 / 5040.0,     1.0 / 720.0,
    1.0 / 120.0,        1.0 / 24.0,        1.0 / 6.0,        1.0 / 2.0,
    1.0,                1.0,
};

/// expm1(u)/u Taylor coefficients 1/(k+1)!, k = 14 .. 0, Horner order: the
/// cancellation-free small-argument branch of tanh (u = 2|x| in [0, 0.5),
/// truncation ~1e-18 relative).
inline constexpr double kExpm1Poly[] = {
    1.0 / 1307674368000.0, 1.0 / 87178291200.0, 1.0 / 6227020800.0, 1.0 / 479001600.0,
    1.0 / 39916800.0,      1.0 / 3628800.0,     1.0 / 362880.0,     1.0 / 40320.0,
    1.0 / 5040.0,          1.0 / 720.0,         1.0 / 120.0,        1.0 / 24.0,
    1.0 / 6.0,             1.0 / 2.0,           1.0,
};

/// |x| below which tanh switches to the expm1 polynomial (u = 2|x| stays
/// within the polynomial's [0, 0.5) domain).
inline constexpr double kTanhSmall = 0.25;
/// |x| at and above which tanh(x) rounds to exactly 1.0 in double.
inline constexpr double kTanhSaturate = 19.0625;

/// Builds 2^e for |e| <= 1023 straight from the exponent bit field.
inline double pow2(std::int64_t e) noexcept {
  double out;
  const std::uint64_t bits = static_cast<std::uint64_t>(e + 1023) << 52;
  __builtin_memcpy(&out, &bits, sizeof(out));
  return out;
}

/// exp(x). The clamp, reduction, Horner chain, two-step scaling and the
/// three trailing selects (overflow, underflow, NaN) appear in the same
/// order as in the AVX2 lane's exp4.
inline double exp(double x) noexcept {
  // min/max with the vector lanes' operand order (NaN falls through to the
  // clamp value; the final select restores it).
  double xc = x < kExpHiClamp ? x : kExpHiClamp;
  xc = xc > kExpLoClamp ? xc : kExpLoClamp;
  const double nd = (xc * kExpLog2e + kExpShifter) - kExpShifter;
  double r = xc + nd * -kExpLn2Hi;
  r = r + nd * -kExpLn2Lo;
  double p = kExpPoly[0];
  for (std::size_t i = 1; i < sizeof(kExpPoly) / sizeof(double); ++i) p = p * r + kExpPoly[i];
  const auto n = static_cast<std::int64_t>(nd);
  const std::int64_t n1 = n >> 1;  // floor halves, matching the vector shifts
  const std::int64_t n2 = n - n1;
  double result = (p * pow2(n1)) * pow2(n2);
  if (x > kExpOverflow) result = std::numeric_limits<double>::infinity();
  if (x < kExpUnderflow) result = 0.0;
  if (x != x) result = x;
  return result;
}

/// tanh(x) = sign(x) * p/(p+2) with p = expm1(2|x|): the expm1 polynomial
/// below the branch point (no cancellation), exp(u) - 1 above it, and
/// exactly +/-1 from kTanhSaturate on.
inline double tanh(double x) noexcept {
  const double ax = std::fabs(x);
  const double u = ax + ax;
  double p;
  if (ax < kTanhSmall) {
    double q = kExpm1Poly[0];
    for (std::size_t i = 1; i < sizeof(kExpm1Poly) / sizeof(double); ++i) {
      q = q * u + kExpm1Poly[i];
    }
    p = u * q;
  } else {
    p = tmath::exp(u) - 1.0;
  }
  double r = p / (p + 2.0);
  if (ax >= kTanhSaturate) r = 1.0;
  r = std::copysign(r, x);
  if (x != x) r = x;
  return r;
}

/// Sign-split sigmoid: z = exp(-|x|) never overflows, then 1/(1+z) for
/// x >= 0 and z/(1+z) below.
inline double sigmoid(double x) noexcept {
  const double z = tmath::exp(-std::fabs(x));
  const double denom = 1.0 + z;
  return x >= 0.0 ? 1.0 / denom : z / denom;
}

/// LSTM gate math over rows [j0, h). With j0 = 0 this IS the scalar
/// lstm_gates kernel; the AVX2 lane calls it with j0 at its ragged tail.
inline void lstm_gates_range(const double* pre, std::size_t h, std::size_t j0, double* cell,
                             double* hidden) noexcept {
  for (std::size_t j = j0; j < h; ++j) {
    const double gi = tmath::sigmoid(pre[j]);
    const double gf = tmath::sigmoid(pre[h + j]);
    const double gg = tmath::tanh(pre[2 * h + j]);
    const double go = tmath::sigmoid(pre[3 * h + j]);
    const double ct = gf * cell[j] + gi * gg;
    cell[j] = ct;
    hidden[j] = go * tmath::tanh(ct);
  }
}

/// Cache-filling gate math over rows [j0, h); same sharing scheme.
inline void lstm_gates_cached_range(const double* pre, std::size_t h, std::size_t j0,
                                    double* gi, double* gf, double* gg, double* go, double* ct,
                                    double* ctt, double* ht, double* cs, double* hs) noexcept {
  for (std::size_t j = j0; j < h; ++j) {
    gi[j] = tmath::sigmoid(pre[j]);
    gf[j] = tmath::sigmoid(pre[h + j]);
    gg[j] = tmath::tanh(pre[2 * h + j]);
    go[j] = tmath::sigmoid(pre[3 * h + j]);
    ct[j] = gf[j] * cs[j] + gi[j] * gg[j];
    ctt[j] = tmath::tanh(ct[j]);
    ht[j] = go[j] * ctt[j];
    cs[j] = ct[j];
    hs[j] = ht[j];
  }
}

}  // namespace goodones::nn::simd::tmath
