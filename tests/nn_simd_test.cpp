// Pins the nn::simd dispatch layer: lane selection (env override semantics,
// clean fallback for unrunnable lanes), the BITWISE scalar-vs-vector
// parity contract of every kernel, on randomized shapes including ragged
// tails (sizes not divisible by the vector width) and exact-zero inputs,
// and the accuracy of the repository's exp/tanh/sigmoid on every lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "nn/kernels/avx2.hpp"
#include "nn/kernels/transcendental.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"

namespace goodones::nn::simd {
namespace {

// --- lane selection ----------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysCompiledAndRunnable) {
  EXPECT_TRUE(isa_runnable(Isa::kScalar));
  ASSERT_NE(table_for(Isa::kScalar), nullptr);
  EXPECT_EQ(table_for(Isa::kScalar)->isa, Isa::kScalar);
}

TEST(SimdDispatch, ResolveHonorsScalarRequestAlways) {
  EXPECT_EQ(resolve("scalar", true), Isa::kScalar);
  EXPECT_EQ(resolve("scalar", false), Isa::kScalar);
}

TEST(SimdDispatch, ResolveHonorsRunnableVectorRequests) {
  EXPECT_EQ(resolve("avx2", true), Isa::kAvx2);
}

TEST(SimdDispatch, ResolveFallsBackWhenRequestNotRunnable) {
  // A lane this process cannot run falls back to the best runnable lane
  // instead of failing.
  EXPECT_EQ(resolve("avx2", false), Isa::kScalar);
}

TEST(SimdDispatch, ResolveAutoPicksBestRunnableLane) {
  for (const char* request : {static_cast<const char*>(nullptr), "", "bogus"}) {
    EXPECT_EQ(resolve(request, true), Isa::kAvx2);
    EXPECT_EQ(resolve(request, false), Isa::kScalar);
  }
}

// The process-wide pin: GOODONES_SIMD=scalar|avx2 must engage the lane it
// names. Without this, a forced-avx2 run on a CPU without AVX2 would fall
// back to scalar silently and the parity suite below would skip itself.
// Any other value means auto and asserts nothing here.
TEST(SimdDispatch, EnvironmentPinEngages) {
  const char* env = std::getenv("GOODONES_SIMD");
  if (env == nullptr) GTEST_SKIP() << "GOODONES_SIMD unset";
  const std::string_view pin = env;
  if (pin == "scalar") {
    EXPECT_EQ(active_isa(), Isa::kScalar);
  }
  if (pin == "avx2") {
    EXPECT_EQ(active_isa(), Isa::kAvx2) << "no AVX2 on this CPU?";
  }
}

TEST(SimdDispatch, ActiveTableMatchesActiveIsa) {
  const KernelTable& table = active();
  EXPECT_EQ(table.isa, active_isa());
  EXPECT_TRUE(isa_runnable(table.isa));
}

TEST(SimdDispatch, SetActiveForTestingRoundTrips) {
  const Isa before = active_isa();
  const Isa prev = set_active_for_testing(Isa::kScalar);
  EXPECT_EQ(prev, before);
  EXPECT_EQ(active_isa(), Isa::kScalar);
  set_active_for_testing(before);
  EXPECT_EQ(active_isa(), before);
}

TEST(SimdDispatch, IsaNamesAreStable) {
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
}

// --- bitwise scalar-vs-vector kernel parity ---------------------------------
//
// Every vector lane must be bitwise identical to the scalar lane — that is
// the contract that lets the whole engine run under any lane without
// perturbing a single pinned number. Shapes are randomized across vector
// widths and ragged tails; inputs mix exact +0.0 / -0.0 with ordinary
// values so branchless accumulation and sign-sensitive transcendental
// splits get exercised.

std::vector<double> random_values(std::size_t n, common::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.10) {
      x = 0.0;
    } else if (roll < 0.15) {
      x = -0.0;
    } else {
      x = rng.uniform(-2.5, 2.5);
    }
  }
  return v;
}

void expect_bitwise(const std::vector<double>& scalar, const std::vector<double>& vec,
                    const char* what, int trial) {
  ASSERT_EQ(scalar.size(), vec.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(scalar[i]), std::bit_cast<std::uint64_t>(vec[i]))
        << what << " trial=" << trial << " i=" << i << " scalar=" << scalar[i]
        << " vector=" << vec[i];
  }
}

/// The AVX2 lane, or nullptr when this machine only has the scalar lane
/// (parity tests then pass trivially — there is nothing to compare, which
/// is itself the correct behavior of the fallback).
const KernelTable* vector_table() { return table_for(Isa::kAvx2); }

class SimdKernelParity : public ::testing::Test {
 protected:
  void SetUp() override {
    vec_ = vector_table();
    if (vec_ == nullptr) GTEST_SKIP() << "no vector lane runnable on this CPU";
    scalar_ = table_for(Isa::kScalar);
  }

  const KernelTable* scalar_ = nullptr;
  const KernelTable* vec_ = nullptr;
};

TEST_F(SimdKernelParity, MatmulAccBitwise) {
  common::Rng rng(0x51D051D0);
  for (int trial = 0; trial < 50; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 17));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 37));
    const auto a = random_values(m * k, rng);
    const auto b = random_values(k * n, rng);
    auto out_s = random_values(m * n, rng);
    auto out_v = out_s;
    scalar_->matmul_acc(a.data(), b.data(), out_s.data(), m, k, n);
    vec_->matmul_acc(a.data(), b.data(), out_v.data(), m, k, n);
    expect_bitwise(out_s, out_v, "matmul_acc", trial);
  }
}

TEST_F(SimdKernelParity, MatmulBiasBitwise) {
  common::Rng rng(0xB1A5B1A5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 17));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 37));
    const auto a = random_values(m * k, rng);
    const auto b = random_values(k * n, rng);
    const auto bias = random_values(n, rng);
    std::vector<double> out_s(m * n, 123.0);  // must be fully overwritten
    std::vector<double> out_v(m * n, -77.0);
    scalar_->matmul_bias(a.data(), b.data(), bias.data(), out_s.data(), m, k, n);
    vec_->matmul_bias(a.data(), b.data(), bias.data(), out_v.data(), m, k, n);
    expect_bitwise(out_s, out_v, "matmul_bias", trial);
  }
}

TEST_F(SimdKernelParity, MatmulTaAccBitwise) {
  common::Rng rng(0x7A7A7A);
  for (int trial = 0; trial < 50; ++trial) {
    const auto r = static_cast<std::size_t>(rng.uniform_int(1, 9));
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 13));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 29));
    const auto a = random_values(r * m, rng);
    const auto b = random_values(r * n, rng);
    auto out_s = random_values(m * n, rng);
    auto out_v = out_s;
    scalar_->matmul_ta_acc(a.data(), b.data(), out_s.data(), r, m, n);
    vec_->matmul_ta_acc(a.data(), b.data(), out_v.data(), r, m, n);
    expect_bitwise(out_s, out_v, "matmul_ta_acc", trial);
  }
}

TEST_F(SimdKernelParity, MatmulTbAccBitwise) {
  common::Rng rng(0x7B7B7B);
  for (int trial = 0; trial < 50; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 9));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 33));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 13));
    const auto a = random_values(m * k, rng);
    const auto b = random_values(n * k, rng);
    auto out_s = random_values(m * n, rng);
    auto out_v = out_s;
    scalar_->matmul_tb_acc(a.data(), b.data(), out_s.data(), m, k, n);
    vec_->matmul_tb_acc(a.data(), b.data(), out_v.data(), m, k, n);
    expect_bitwise(out_s, out_v, "matmul_tb_acc", trial);
  }
}

TEST_F(SimdKernelParity, AxpyBitwise) {
  common::Rng rng(0xA2B4);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 41));
    const double alpha = trial % 7 == 0 ? 0.0 : rng.uniform(-2.0, 2.0);
    const auto x = random_values(n, rng);
    auto y_s = random_values(n, rng);
    auto y_v = y_s;
    scalar_->axpy(alpha, x.data(), y_s.data(), n);
    vec_->axpy(alpha, x.data(), y_v.data(), n);
    expect_bitwise(y_s, y_v, "axpy", trial);
  }
}

TEST_F(SimdKernelParity, LstmGatesBitwise) {
  common::Rng rng(0x6A7E5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto h = static_cast<std::size_t>(rng.uniform_int(1, 19));
    const auto pre = random_values(4 * h, rng);
    auto cell_s = random_values(h, rng);
    auto hidden_s = random_values(h, rng);
    auto cell_v = cell_s;
    auto hidden_v = hidden_s;
    scalar_->lstm_gates(pre.data(), h, cell_s.data(), hidden_s.data());
    vec_->lstm_gates(pre.data(), h, cell_v.data(), hidden_v.data());
    expect_bitwise(cell_s, cell_v, "lstm_gates cell", trial);
    expect_bitwise(hidden_s, hidden_v, "lstm_gates hidden", trial);
  }
}

TEST_F(SimdKernelParity, LstmGatesCachedBitwise) {
  common::Rng rng(0x6A7E5CAC);
  for (int trial = 0; trial < 50; ++trial) {
    const auto h = static_cast<std::size_t>(rng.uniform_int(1, 19));
    const auto pre = random_values(4 * h, rng);
    const auto cs0 = random_values(h, rng);
    const auto hs0 = random_values(h, rng);

    struct Out {
      std::vector<double> gi, gf, gg, go, ct, ctt, ht, cs, hs;
      explicit Out(std::size_t h, const std::vector<double>& cs0,
                   const std::vector<double>& hs0)
          : gi(h), gf(h), gg(h), go(h), ct(h), ctt(h), ht(h), cs(cs0), hs(hs0) {}
    };
    Out s(h, cs0, hs0);
    Out v(h, cs0, hs0);
    scalar_->lstm_gates_cached(pre.data(), h, s.gi.data(), s.gf.data(), s.gg.data(),
                               s.go.data(), s.ct.data(), s.ctt.data(), s.ht.data(),
                               s.cs.data(), s.hs.data());
    vec_->lstm_gates_cached(pre.data(), h, v.gi.data(), v.gf.data(), v.gg.data(),
                            v.go.data(), v.ct.data(), v.ctt.data(), v.ht.data(),
                            v.cs.data(), v.hs.data());
    expect_bitwise(s.gi, v.gi, "gates_cached gi", trial);
    expect_bitwise(s.gf, v.gf, "gates_cached gf", trial);
    expect_bitwise(s.gg, v.gg, "gates_cached gg", trial);
    expect_bitwise(s.go, v.go, "gates_cached go", trial);
    expect_bitwise(s.ct, v.ct, "gates_cached ct", trial);
    expect_bitwise(s.ctt, v.ctt, "gates_cached ctt", trial);
    expect_bitwise(s.ht, v.ht, "gates_cached ht", trial);
    expect_bitwise(s.cs, v.cs, "gates_cached cs", trial);
    expect_bitwise(s.hs, v.hs, "gates_cached hs", trial);
  }
}

// --- wide-range gate math and the elementwise kernels ----------------------
//
// exp, tanh and sigmoid branch: tanh's small-argument polynomial and its
// saturation, exp's overflow and underflow cut-offs. The AVX2 lane computes
// both sides of every branch and selects, the scalar lane takes one, and
// both must land on the same bits. Wide-range inputs reach every branch.

/// Wide-range values: saturation tails, branch boundaries and signed zeros
/// all get hit.
std::vector<double> random_wide_values(std::size_t n, common::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.06) {
      x = 0.0;
    } else if (roll < 0.10) {
      x = -0.0;
    } else if (roll < 0.25) {
      x = rng.uniform(-0.5, 0.5);  // around the tanh small-argument branch
    } else if (roll < 0.40) {
      x = rng.uniform(-40.0, 40.0);  // saturation tails
    } else {
      x = rng.uniform(-8.0, 8.0);  // typical gate pre-activations
    }
  }
  return v;
}

TEST_F(SimdKernelParity, LstmGatesWideRangeBitwise) {
  common::Rng rng(0xFA576A7E);
  for (int trial = 0; trial < 50; ++trial) {
    const auto h = static_cast<std::size_t>(rng.uniform_int(1, 19));
    const auto pre = random_wide_values(4 * h, rng);
    auto cell_s = random_values(h, rng);
    auto hidden_s = random_values(h, rng);
    auto cell_v = cell_s;
    auto hidden_v = hidden_s;
    scalar_->lstm_gates(pre.data(), h, cell_s.data(), hidden_s.data());
    vec_->lstm_gates(pre.data(), h, cell_v.data(), hidden_v.data());
    expect_bitwise(cell_s, cell_v, "lstm_gates wide cell", trial);
    expect_bitwise(hidden_s, hidden_v, "lstm_gates wide hidden", trial);
  }
}

TEST_F(SimdKernelParity, LstmGatesCachedWideRangeBitwise) {
  common::Rng rng(0xCAC4E5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto h = static_cast<std::size_t>(rng.uniform_int(1, 19));
    const auto pre = random_wide_values(4 * h, rng);
    std::vector<std::vector<double>> s(9, std::vector<double>(h));
    s[7] = random_wide_values(h, rng);  // cs: a wide cell state reaches tanh's tails
    s[8] = random_values(h, rng);       // hs
    auto v = s;
    scalar_->lstm_gates_cached(pre.data(), h, s[0].data(), s[1].data(), s[2].data(),
                               s[3].data(), s[4].data(), s[5].data(), s[6].data(),
                               s[7].data(), s[8].data());
    vec_->lstm_gates_cached(pre.data(), h, v[0].data(), v[1].data(), v[2].data(), v[3].data(),
                            v[4].data(), v[5].data(), v[6].data(), v[7].data(), v[8].data());
    for (std::size_t k = 0; k < s.size(); ++k) {
      expect_bitwise(s[k], v[k], "gates_cached wide", trial);
    }
  }
}

/// out[i] = f(x[i]) over n elements.
using ElementwiseFn = void (*)(const double* x, double* out, std::size_t n);

void scalar_exp_n(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = tmath::exp(x[i]);
}

#ifdef GOODONES_SIMD_HAS_AVX2
__attribute__((target("avx2"))) void avx2_exp_n(const double* x, double* out,
                                                std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, avx2_kernels::exp4(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = tmath::exp(x[i]);
}
#endif

/// One runnable lane's exp, tanh and sigmoid. tanh and sigmoid are table
/// entries (the dense activations call them); exp is not, because no
/// library function calls it alone, so the AVX2 lane's exp4 is reached
/// through its header.
struct Lane {
  Isa isa;
  ElementwiseFn exp;
  ElementwiseFn tanh;
  ElementwiseFn sigmoid;
};

/// Every lane runnable on this machine (scalar always; at most one vector).
std::vector<Lane> runnable_lanes() {
  const KernelTable* scalar = table_for(Isa::kScalar);
  std::vector<Lane> lanes{{Isa::kScalar, &scalar_exp_n, scalar->tanh_n, scalar->sigmoid_n}};
#ifdef GOODONES_SIMD_HAS_AVX2
  if (const KernelTable* vec = vector_table()) {
    lanes.push_back({Isa::kAvx2, &avx2_exp_n, vec->tanh_n, vec->sigmoid_n});
  }
#endif
  return lanes;
}

TEST_F(SimdKernelParity, ElementwiseBitwise) {
  common::Rng rng(0xFA57BA7C);
  const std::vector<Lane> lanes = runnable_lanes();
  ASSERT_EQ(lanes.size(), 2u);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 41));
    auto x = random_wide_values(n, rng);
    for (double& v : x) v *= trial % 2 == 0 ? 1.0 : 20.0;  // exp's cut-offs too
    std::vector<double> out_s(n, 99.0);
    std::vector<double> out_v(n, -99.0);
    lanes[0].exp(x.data(), out_s.data(), n);
    lanes[1].exp(x.data(), out_v.data(), n);
    expect_bitwise(out_s, out_v, "exp", trial);
    scalar_->tanh_n(x.data(), out_s.data(), n);
    vec_->tanh_n(x.data(), out_v.data(), n);
    expect_bitwise(out_s, out_v, "tanh_n", trial);
    scalar_->sigmoid_n(x.data(), out_s.data(), n);
    vec_->sigmoid_n(x.data(), out_v.data(), n);
    expect_bitwise(out_s, out_v, "sigmoid_n", trial);
  }
}

// --- accuracy against a long-double reference --------------------------------
//
// The bounds below were derived from the formulation before the sweep ran;
// the sweep checks them, it did not choose them. Notation: u = 2^-53, the
// unit roundoff of double; every IEEE operation returns op(a, b)(1 + d)
// with |d| <= u. A result y with relative error below k*u is less than k
// ulp(y) from the true value, and the reference (the true value rounded to
// double) is within 0.5 ulp of it, so the two doubles are fewer than
// k + 0.5 ulp apart: the integer bound is the largest integer below k + 0.5.
// (Across a binade boundary the count holds in the smaller ulp.)
//
// exp(x) = p(r) * 2^n, n = round(x / ln2), r = x - n ln2:
//   - reduction: n * ln2hi is exact (ln2hi has 21 trailing zero bits and
//     |n| <= 1077) and x - n ln2hi is exact (Sterbenz); the n * ln2lo
//     product and the final subtraction round. |r| <= 0.347, so the
//     absolute error of r is at most ulp(r)/2 <= 2^-55 = 0.25u (ln2's
//     representation and the product add below 1e-22), and exp(r) <= 1.415
//     turns it into at most 0.36u of p.
//   - Horner, degree 13: the last steps dominate. For r >= 0, p in
//     [1, 1.415): the last add rounds by <= 1u (ulp 2u), the last multiply
//     (value < 0.5) by <= 0.25u, the previous add (value in [1, 1.2)) by
//     <= 1u, damped by |r| <= 0.347 to 0.35u; everything earlier, the
//     coefficient roundings and the 4e-18 truncation add < 0.15u. Total
//     absolute error < 2.1u with p >= 1, so relative < 2.1u. For r < 0,
//     p in [0.707, 1): the same steps give < 1.3u absolute, relative
//     < 1.9u.
//   - 2^n = 2^n1 * 2^n2 is exact; a subnormal result rounds once more, by
//     half a subnormal ulp, while p's error is at most 1.05 subnormal ulp.
//   => relative error < 2.1u: exp is within 2 ulp; subnormal results
//      within 2 as well (1.05 + 0.5 + 0.5 < 3, strictly below 2.05).
// sigmoid(x): z = exp(-|x|) in (0, 1] (error < 2.1u), d = 1 + z:
//   relative error of d < 2.1u * z/(1+z) + u <= 2.05u.
//   - x >= 0, 1/d: < 2.05u + u = 3.05u.
//   - x < 0, z/d: z's error enters scaled by 1/(1+z) <= 1, plus d's
//     rounding and the division: < 2.1u + 2u = 4.1u.
//   - subnormal z: 1 + z rounds to 1, z/1 is exact, so exp's bound holds.
//   => sigmoid is within 4 ulp.
// tanh(x) = p/(p+2), p = expm1(2|x|), sign restored exactly:
//   - |x| < 0.25: u' = 2|x| is exact; the expm1(u')/u' Horner polynomial
//     q in [1, 1.3) ends in an add of 1 (<= 1u) after a multiply (<= 0.25u)
//     and an add damped by u' <= 0.5 (<= 0.5 * 0.63u): relative < 1.62u.
//     p = u' q adds u: < 2.62u. p/(p+2) scales p's error by 2/(p+2) <= 1
//     and adds u for p + 2 and u for the division: < 4.62u. For |x| below
//     2^-54, q rounds to exactly 1 and tanh returns x exactly, subnormals
//     included.
//   - 0.25 <= |x| < 19.0625: e = exp(2|x|) >= 1.6487 with error < 2.1u.
//     p = e - 1 is exact for e <= 2 (Sterbenz) and rounds by u above.
//     (e-1)/(e+1) scales e's error by 2e/(e^2-1), at most 1.92 at
//     e = 1.6487 (p exact there) and at most 4/3 above e = 2 (where p's
//     rounding enters scaled by 2/(p+2) <= 2/3): the worst case is
//     1.92 * 2.1u + 2u < 6.03u.
//   - |x| >= 19.0625: tanh rounds to exactly 1; the select returns 1.
//   => tanh is within 6 ulp.
// The reference is evaluated in long double (64-bit significand on x86-64)
// and rounded once to double; its own error is below 2^-10 ulp, inside the
// slack each bound leaves below k + 0.5.

constexpr std::uint64_t kExpUlpBound = 2;
constexpr std::uint64_t kSigmoidUlpBound = 4;
constexpr std::uint64_t kTanhUlpBound = 6;

/// ulp distance between two doubles; 0 for bitwise-equal specials (both NaN,
/// same infinity, +0 vs -0), max() when exactly one is NaN/inf.
std::uint64_t ulp_distance(double a, double b) {
  const bool nan_a = std::isnan(a);
  const bool nan_b = std::isnan(b);
  if (nan_a || nan_b) {
    return nan_a == nan_b ? 0 : std::numeric_limits<std::uint64_t>::max();
  }
  if (a == b) return 0;  // also +0 == -0 and equal infinities
  if (std::isinf(a) || std::isinf(b)) return std::numeric_limits<std::uint64_t>::max();
  const auto key = [](double x) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    // Order-preserving map of doubles onto the unsigned line.
    return (bits >> 63) != 0 ? ~bits : bits | 0x8000000000000000ULL;
  };
  const std::uint64_t ka = key(a);
  const std::uint64_t kb = key(b);
  return ka > kb ? ka - kb : kb - ka;
}

/// The sweep over [-limit, limit]: uniform samples across the whole range,
/// samples uniform in log-magnitude from the subnormals up to `limit` (so
/// small arguments are as well covered as large ones), and the special
/// values, each with its neighbouring doubles.
std::vector<double> sweep_inputs(double limit, common::Rng& rng) {
  constexpr std::size_t kSamples = 100000;
  std::vector<double> v;
  v.reserve(2 * kSamples + 128);
  for (std::size_t i = 0; i < kSamples; ++i) v.push_back(rng.uniform(-limit, limit));
  const double log_lo = std::log(5e-324);
  const double log_hi = std::log(limit);
  for (std::size_t i = 0; i < kSamples; ++i) {
    const double magnitude = std::exp(rng.uniform(log_lo, log_hi));
    v.push_back(i % 2 == 0 ? magnitude : -magnitude);
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const double s :
       {0.0, 5e-324, 1e-310, 2.2250738585072014e-308,          // zero, subnormals, min normal
        tmath::kTanhSmall, tmath::kTanhSaturate,                // tanh's branch and saturation
        tmath::kExpOverflow, 709.0, 710.0,                      // exp's overflow cut-off
        tmath::kExpUnderflow, 708.4, 744.0, 745.0, 746.0,       // subnormal band and underflow
        1e308, inf}) {
    for (const double x : {s, -s}) {
      v.push_back(x);
      v.push_back(std::nextafter(x, inf));
      v.push_back(std::nextafter(x, -inf));
    }
  }
  v.push_back(std::numeric_limits<double>::quiet_NaN());
  return v;
}

/// Checks one lane's function against the reference on every input.
void expect_ulp_bound(const char* what, Isa isa, ElementwiseFn fn,
                      const std::vector<double>& xs, const std::vector<double>& reference,
                      std::uint64_t bound) {
  std::vector<double> out(xs.size());
  fn(xs.data(), out.data(), xs.size());
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint64_t distance = ulp_distance(out[i], reference[i]);
    ASSERT_LE(distance, bound) << what << " lane=" << isa_name(isa) << " x=" << xs[i]
                               << " got=" << out[i] << " ref=" << reference[i];
    worst = std::max(worst, distance);
  }
  std::cout << "[ ulp      ] " << what << " lane=" << isa_name(isa) << " worst=" << worst
            << " bound=" << bound << " over " << xs.size() << " inputs\n";
}

class TranscendentalAccuracy : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::numeric_limits<long double>::digits <= std::numeric_limits<double>::digits) {
      GTEST_SKIP() << "long double is no wider than double here: no reference";
    }
  }
};

TEST_F(TranscendentalAccuracy, ExpWithinDerivedBoundEveryLane) {
  common::Rng rng(0xE4B0);
  const auto xs = sweep_inputs(760.0, rng);
  std::vector<double> reference;
  for (const double x : xs) {
    reference.push_back(static_cast<double>(std::exp(static_cast<long double>(x))));
  }
  for (const Lane& lane : runnable_lanes()) {
    expect_ulp_bound("exp", lane.isa, lane.exp, xs, reference, kExpUlpBound);
  }
}

TEST_F(TranscendentalAccuracy, TanhWithinDerivedBoundEveryLane) {
  common::Rng rng(0x7A9E);
  const auto xs = sweep_inputs(40.0, rng);
  std::vector<double> reference;
  for (const double x : xs) {
    reference.push_back(static_cast<double>(std::tanh(static_cast<long double>(x))));
  }
  for (const Lane& lane : runnable_lanes()) {
    expect_ulp_bound("tanh", lane.isa, lane.tanh, xs, reference, kTanhUlpBound);
  }
}

TEST_F(TranscendentalAccuracy, SigmoidWithinDerivedBoundEveryLane) {
  common::Rng rng(0x516D);
  const auto xs = sweep_inputs(800.0, rng);
  std::vector<double> reference;
  for (const double x : xs) {
    const long double lx = x;
    const long double z = std::exp(-std::fabs(lx));
    reference.push_back(static_cast<double>(lx >= 0 ? 1.0L / (1.0L + z) : z / (1.0L + z)));
  }
  for (const Lane& lane : runnable_lanes()) {
    expect_ulp_bound("sigmoid", lane.isa, lane.sigmoid, xs, reference, kSigmoidUlpBound);
  }
}

// --- every batched path equals the scalar forward(), on every lane --------------
//
// The batched LSTM paths (run_batch from snapshots, forward_batch_cached)
// must reproduce the scalar lane's per-sequence forward() bit for bit under
// every lane. This is the unit-level guarantee behind the e2e parity suites
// and Table-II pins staying byte-for-byte unchanged.

void expect_matrix_bitwise(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a(r, c)), std::bit_cast<std::uint64_t>(b(r, c)))
          << what << " r=" << r << " c=" << c << " a=" << a(r, c) << " b=" << b(r, c);
    }
  }
}

TEST(BatchedPaths, BitwiseEqualScalarForwardEveryLane) {
  common::Rng rng(0xFA57'0FF);
  Lstm cell(/*input_dim=*/5, /*hidden_dim=*/12, rng);
  std::vector<Matrix> seqs(4, Matrix(9, 5));
  for (Matrix& seq : seqs) {
    for (std::size_t r = 0; r < seq.rows(); ++r) {
      for (std::size_t c = 0; c < seq.cols(); ++c) seq(r, c) = rng.uniform(-1.5, 1.5);
    }
  }
  std::vector<const Matrix*> seq_ptrs;
  for (const Matrix& seq : seqs) seq_ptrs.push_back(&seq);
  const Lstm::PrefixState zero = cell.initial_state();
  const std::vector<const Lstm::PrefixState*> starts(seqs.size(), &zero);

  // Scalar reference: every hidden row of each full forward(), and the last
  // one per sequence.
  const Isa before = active_isa();
  set_active_for_testing(Isa::kScalar);
  std::vector<Matrix> reference_hidden;
  Matrix reference(seqs.size(), cell.hidden_dim());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    reference_hidden.push_back(cell.forward(seqs[i]));
    const Matrix& hidden = reference_hidden.back();
    for (std::size_t c = 0; c < cell.hidden_dim(); ++c) {
      reference(i, c) = hidden(hidden.rows() - 1, c);
    }
  }
  set_active_for_testing(before);

  for (const Lane& lane : runnable_lanes()) {
    const Isa prev = set_active_for_testing(lane.isa);

    expect_matrix_bitwise(cell.run_batch(seq_ptrs, starts, 0), reference,
                          "run_batch vs reference");

    // The cached batched forward: every lane's caches must hold the scalar
    // forward()'s hidden rows bit for bit.
    std::vector<Lstm::Cache> caches;
    cell.forward_batch_cached(seqs, caches);
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      expect_matrix_bitwise(caches[i].hidden, reference_hidden[i],
                            "forward_batch_cached vs reference");
    }

    set_active_for_testing(prev);
  }
}

}  // namespace
}  // namespace goodones::nn::simd
