// Runtime-dispatched SIMD kernel layer for the nn substrate.
//
// All hot inner loops (dense GEMM variants, axpy, the fused LSTM gate math,
// the dense activations) route through one function-pointer table selected
// once per process: the best lane the CPU can run, overridable with
// GOODONES_SIMD=scalar|avx2. AVX2 runs where an x86-64 CPU has AVX2; the
// scalar lane runs everywhere else. The AVX2 lane is written to be
// BITWISE-identical to the scalar lane: per-output-element accumulation
// order is preserved, multiplies and adds stay separate IEEE operations (no
// FMA contraction — the whole build uses -ffp-contract=off), and exp, tanh
// and sigmoid are the repository's own (nn/kernels/transcendental.hpp),
// which both lanes evaluate with the same operations. No kernel calls libm.
// That is what lets the 1e-12 / bitwise parity pins hold under either lane.
#pragma once

#include <cstddef>

namespace goodones::nn {

/// Numeric mode of Forecaster::predict_batch. There is one lane, so the
/// type has one value and predict_batch ignores it. It stays only because
/// the benchmark's serving workload names Precision::kDouble; ROADMAP
/// direction 1a removes that use, and this type goes with it.
enum class Precision { kDouble };

namespace simd {

enum class Isa { kScalar, kAvx2 };

/// Human-readable lane name ("scalar", "avx2").
const char* isa_name(Isa isa) noexcept;

/// The kernel function-pointer table of one lane. Raw-pointer signatures so
/// kernels stay usable on matrix rows, packed buffers, and std::vector
/// storage alike; shape checks live in the nn::Matrix wrappers.
struct KernelTable {
  Isa isa;

  /// out(m x n) += a(m x k) * b(k x n). Branchless accumulation in i-k-j
  /// order: each output element's partial sums land in ascending k order.
  void (*matmul_acc)(const double* a, const double* b, double* out, std::size_t m,
                     std::size_t k, std::size_t n);
  /// out(m x n) = a(m x k) * b(k x n) + bias(n) broadcast per row, fused in
  /// one pass (bias is added after each row's k-accumulation, matching the
  /// historical matmul-then-bias-pass numerics bit for bit).
  void (*matmul_bias)(const double* a, const double* b, const double* bias, double* out,
                      std::size_t m, std::size_t k, std::size_t n);
  /// out(m x n) += a(r x m)^T * b(r x n), r-outer accumulation order.
  void (*matmul_ta_acc)(const double* a, const double* b, double* out, std::size_t r,
                        std::size_t m, std::size_t n);
  /// out(m x n) += a(m x k) * b(n x k)^T; each output element is one
  /// ascending-k dot product.
  void (*matmul_tb_acc)(const double* a, const double* b, double* out, std::size_t m,
                        std::size_t k, std::size_t n);
  /// y += alpha * x over n elements.
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);

  /// Fused LSTM gate math over one 4h-wide pre-activation row laid out as
  /// [input, forget, cell, output]. Updates cell and hidden (h each) in
  /// place: c = sigm(f)*c + sigm(i)*tanh(g); h = sigm(o)*tanh(c).
  void (*lstm_gates)(const double* pre, std::size_t h, double* cell, double* hidden);
  /// Cache-filling variant: also stores the post-activation gates and the
  /// cell/cell_tanh/hidden rows a later backward pass needs. `cs`/`hs` are
  /// the running recurrent state (read then overwritten).
  void (*lstm_gates_cached)(const double* pre, std::size_t h, double* gi, double* gf,
                            double* gg, double* go, double* ct, double* ctt, double* ht,
                            double* cs, double* hs);

  /// out[i] = tanh(x[i]) and out[i] = sigmoid(x[i]) over n elements (out
  /// may alias x): the dense activations' kernels.
  void (*tanh_n)(const double* x, double* out, std::size_t n);
  void (*sigmoid_n)(const double* x, double* out, std::size_t n);
};

/// Whether this binary holds the lane AND this CPU can execute it. The
/// scalar lane always can; AVX2 needs an x86-64 build and a CPU with AVX2.
bool isa_runnable(Isa isa) noexcept;

/// The table of a specific lane, or nullptr when it is not runnable here.
const KernelTable* table_for(Isa isa) noexcept;

/// Pure lane-selection logic (unit-testable): `requested` is the value of
/// GOODONES_SIMD (nullptr or "" = auto). An unknown value or a request for a
/// lane this process cannot run falls back to the best runnable lane
/// (avx2 > scalar); "scalar" is always honored.
Isa resolve(const char* requested, bool avx2_runnable) noexcept;

/// The process-wide active lane, resolved once from GOODONES_SIMD + CPU
/// detection on first use.
const KernelTable& active() noexcept;
Isa active_isa() noexcept;

/// Test hook: forces the active lane (must be runnable). Returns the
/// previously active lane so tests can restore it.
Isa set_active_for_testing(Isa isa);

}  // namespace simd
}  // namespace goodones::nn
