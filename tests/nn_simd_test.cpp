// Pins the nn::simd dispatch layer: lane selection (env override semantics,
// clean fallback for unrunnable lanes) and the BITWISE scalar-vs-vector
// parity contract of every kernel, on randomized shapes including ragged
// tails (sizes not divisible by the vector width) and exact-zero inputs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
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
    EXPECT_EQ(active_isa(), Isa::kAvx2) << "no AVX2+FMA on this CPU?";
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

// --- fast lane: cross-ISA bitwise agreement ---------------------------------
//
// The kFast kernels sit OUTSIDE the scalar-libm parity contract, but they
// carry their own: every operation in the polynomial pipeline is a
// correctly-rounded IEEE primitive executed in the same order on every lane,
// so the scalar and AVX2 fast kernels must agree bitwise with EACH OTHER —
// a fast-lane probe must not additionally depend on the ISA.

/// Wide-range values for the fast transcendentals: saturation tails, branch
/// boundaries and signed zeros all get hit.
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

TEST_F(SimdKernelParity, FastLstmGatesBitwise) {
  common::Rng rng(0xFA576A7E);
  for (int trial = 0; trial < 50; ++trial) {
    const auto h = static_cast<std::size_t>(rng.uniform_int(1, 19));
    const auto pre = random_wide_values(4 * h, rng);
    auto cell_s = random_values(h, rng);
    auto hidden_s = random_values(h, rng);
    auto cell_v = cell_s;
    auto hidden_v = hidden_s;
    scalar_->lstm_gates_fast(pre.data(), h, cell_s.data(), hidden_s.data());
    vec_->lstm_gates_fast(pre.data(), h, cell_v.data(), hidden_v.data());
    expect_bitwise(cell_s, cell_v, "lstm_gates_fast cell", trial);
    expect_bitwise(hidden_s, hidden_v, "lstm_gates_fast hidden", trial);
  }
}

TEST_F(SimdKernelParity, FastTranscendentalBatchBitwise) {
  common::Rng rng(0xFA57BA7C);
  for (int trial = 0; trial < 50; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 41));
    const auto x = random_wide_values(n, rng);
    std::vector<double> out_s(n, 99.0);
    std::vector<double> out_v(n, -99.0);
    scalar_->fast_exp_n(x.data(), out_s.data(), n);
    vec_->fast_exp_n(x.data(), out_v.data(), n);
    expect_bitwise(out_s, out_v, "fast_exp_n", trial);
    scalar_->fast_tanh_n(x.data(), out_s.data(), n);
    vec_->fast_tanh_n(x.data(), out_v.data(), n);
    expect_bitwise(out_s, out_v, "fast_tanh_n", trial);
    scalar_->fast_sigmoid_n(x.data(), out_s.data(), n);
    vec_->fast_sigmoid_n(x.data(), out_v.data(), n);
    expect_bitwise(out_s, out_v, "fast_sigmoid_n", trial);
  }
}

// --- fast lane: ulp accuracy against glibc ----------------------------------
//
// The kFast accuracy contract (documented in README / BENCHMARKS): exp within
// 2 ulp of glibc, sigmoid within 3, tanh within 5 (measured worst cases are
// 1 / 2 / 4; the bounds leave one ulp of slack against libm version drift).
// The sweep covers the full input range every lane can see: saturation
// tails past the overflow/underflow cutoffs, the gradual-underflow denormal
// band, signed zeros, the tanh small-argument branch boundary, +/-inf, NaN.

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

/// Every lane runnable on this machine (scalar always; at most one vector).
std::vector<const KernelTable*> runnable_tables() {
  std::vector<const KernelTable*> tables{table_for(Isa::kScalar)};
  if (const KernelTable* vec = vector_table()) tables.push_back(vec);
  return tables;
}

/// `count` uniform samples over [lo, hi] plus the hard special values.
std::vector<double> sweep_inputs(double lo, double hi, std::size_t count,
                                 common::Rng& rng) {
  std::vector<double> v;
  v.reserve(count + 32);
  for (std::size_t i = 0; i < count; ++i) v.push_back(rng.uniform(lo, hi));
  const double inf = std::numeric_limits<double>::infinity();
  for (const double s :
       {0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308,         // signed zero, denormals
        0.2499, 0.2501, -0.2499, -0.2501,                    // tanh branch boundary
        19.0624, 19.0626, -19.0624, -19.0626,                // tanh saturation cutoff
        709.782712893384, 709.783, -745.13321910194110842,   // exp overflow/underflow
        -745.2, -745.0, -744.5,                              // denormal band
        1e308, -1e308, inf, -inf,
        std::numeric_limits<double>::quiet_NaN()}) {
    v.push_back(s);
  }
  return v;
}

void expect_ulp_bound(const char* what, const KernelTable* table,
                      void (*KernelTable::*kernel)(const double*, double*, std::size_t),
                      const std::vector<double>& xs, double (*reference)(double),
                      std::uint64_t bound) {
  std::vector<double> out(xs.size());
  (table->*kernel)(xs.data(), out.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double ref = reference(xs[i]);
    ASSERT_LE(ulp_distance(out[i], ref), bound)
        << what << " lane=" << isa_name(table->isa) << " x=" << xs[i]
        << " got=" << out[i] << " ref=" << ref;
  }
}

TEST(FastTranscendentalAccuracy, ExpWithinTwoUlpEveryLane) {
  common::Rng rng(0xE4B0);
  const auto xs = sweep_inputs(-760.0, 720.0, 20000, rng);
  for (const KernelTable* table : runnable_tables()) {
    expect_ulp_bound("fast_exp", table, &KernelTable::fast_exp_n, xs,
                     [](double x) { return std::exp(x); }, 2);
  }
}

TEST(FastTranscendentalAccuracy, TanhWithinFiveUlpEveryLane) {
  common::Rng rng(0x7A9E);
  const auto xs = sweep_inputs(-25.0, 25.0, 20000, rng);
  for (const KernelTable* table : runnable_tables()) {
    expect_ulp_bound("fast_tanh", table, &KernelTable::fast_tanh_n, xs,
                     [](double x) { return std::tanh(x); }, 5);
  }
}

TEST(FastTranscendentalAccuracy, SigmoidWithinThreeUlpEveryLane) {
  common::Rng rng(0x516D);
  const auto xs = sweep_inputs(-800.0, 800.0, 20000, rng);
  for (const KernelTable* table : runnable_tables()) {
    expect_ulp_bound("fast_sigmoid", table, &KernelTable::fast_sigmoid_n, xs,
                     [](double x) { return tmath::libm_sigmoid(x); }, 3);
  }
}

// --- fast lane: no leak into default-precision paths ------------------------
//
// With the fast kernels compiled into every table, the DEFAULT precision of
// every batched path must stay bitwise identical to the exact scalar
// reference on every lane — the fast lane may only engage through an
// explicit Precision::kFast opt-in. This is the unit-level guarantee behind
// the e2e parity suites and Table-II pins staying byte-for-byte unchanged.

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

std::size_t count_matrix_diffs(const Matrix& a, const Matrix& b) {
  std::size_t diffs = 0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (std::bit_cast<std::uint64_t>(a(r, c)) != std::bit_cast<std::uint64_t>(b(r, c))) {
        ++diffs;
      }
    }
  }
  return diffs;
}

TEST(FastLaneNoLeak, DefaultBatchedPathsBitwiseUnchangedEveryLane) {
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

  // Scalar exact reference: every hidden row of each full forward(), and
  // the last one per sequence.
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

  for (const KernelTable* table : runnable_tables()) {
    const Isa prev = set_active_for_testing(table->isa);

    const Matrix h_default = cell.run_batch(seq_ptrs, starts, 0);
    const Matrix h_exact = cell.run_batch(seq_ptrs, starts, 0, Precision::kDouble);
    expect_matrix_bitwise(h_default, reference, "run_batch default vs reference");
    expect_matrix_bitwise(h_exact, reference, "run_batch kDouble vs reference");

    // The cached batched forward has no fast lane at all: every lane's
    // caches must hold the scalar forward()'s hidden rows bit for bit.
    std::vector<Lstm::Cache> caches;
    cell.forward_batch_cached(seqs, caches);
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      expect_matrix_bitwise(caches[i].hidden, reference_hidden[i],
                            "forward_batch_cached vs reference");
    }

    // And the opt-in actually reaches the fast kernels: the same batch under
    // kFast must differ somewhere (few-ulp gate error) while staying tiny.
    const Matrix h_fast = cell.run_batch(seq_ptrs, starts, 0, Precision::kFast);
    EXPECT_GT(count_matrix_diffs(h_fast, reference), 0u)
        << "kFast never engaged on lane " << isa_name(table->isa);
    for (std::size_t i = 0; i < h_fast.rows(); ++i) {
      for (std::size_t c = 0; c < h_fast.cols(); ++c) {
        EXPECT_NEAR(h_fast(i, c), reference(i, c), 1e-9);
      }
    }

    set_active_for_testing(prev);
  }
}

}  // namespace
}  // namespace goodones::nn::simd
