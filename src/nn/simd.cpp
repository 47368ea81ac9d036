#include "nn/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

#include "common/error.hpp"
#include "nn/kernels/avx2.hpp"
#include "nn/kernels/scalar.hpp"

namespace goodones::nn::simd {

namespace {

constexpr KernelTable kScalarTable = {
    Isa::kScalar,
    &scalar_kernels::matmul_acc,
    &scalar_kernels::matmul_bias,
    &scalar_kernels::matmul_ta_acc,
    &scalar_kernels::matmul_tb_acc,
    &scalar_kernels::axpy,
    &scalar_kernels::lstm_gates,
    &scalar_kernels::lstm_gates_cached,
    &scalar_kernels::lstm_gates_fast,
    &scalar_kernels::fast_exp_n,
    &scalar_kernels::fast_tanh_n,
    &scalar_kernels::fast_sigmoid_n,
};

#ifdef GOODONES_SIMD_HAS_AVX2
constexpr KernelTable kAvx2Table = {
    Isa::kAvx2,
    &avx2_kernels::matmul_acc,
    &avx2_kernels::matmul_bias,
    &avx2_kernels::matmul_ta_acc,
    &avx2_kernels::matmul_tb_acc,
    &avx2_kernels::axpy,
    &avx2_kernels::lstm_gates,
    &avx2_kernels::lstm_gates_cached,
    &avx2_kernels::lstm_gates_fast,
    &avx2_kernels::fast_exp_n,
    &avx2_kernels::fast_tanh_n,
    &avx2_kernels::fast_sigmoid_n,
};
#endif

const KernelTable* resolve_initial() {
  return table_for(resolve(std::getenv("GOODONES_SIMD"), isa_runnable(Isa::kAvx2)));
}

std::atomic<const KernelTable*>& active_slot() {
  static std::atomic<const KernelTable*> slot{resolve_initial()};
  return slot;
}

}  // namespace

const char* isa_name(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
  }
  return "unknown";
}

bool isa_runnable(Isa isa) noexcept {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#ifdef GOODONES_SIMD_HAS_AVX2
      // The fast-math table entries use FMA; every AVX2-capable CPU in
      // practice has it, but gate on both cpuid bits to be exact.
      return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
  }
  return false;
}

const KernelTable* table_for(Isa isa) noexcept {
  if (!isa_runnable(isa)) return nullptr;
  switch (isa) {
    case Isa::kScalar:
      return &kScalarTable;
    case Isa::kAvx2:
#ifdef GOODONES_SIMD_HAS_AVX2
      return &kAvx2Table;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

Isa resolve(const char* requested, bool avx2_runnable) noexcept {
  const std::string_view req = requested == nullptr ? std::string_view{} : requested;
  if (req == "scalar") return Isa::kScalar;
  // "avx2", auto, an unknown value, or a lane this process cannot run:
  // best available.
  return avx2_runnable ? Isa::kAvx2 : Isa::kScalar;
}

const KernelTable& active() noexcept {
  return *active_slot().load(std::memory_order_relaxed);
}

Isa active_isa() noexcept { return active().isa; }

Isa set_active_for_testing(Isa isa) {
  const KernelTable* table = table_for(isa);
  GO_EXPECTS(table != nullptr);
  return active_slot().exchange(table, std::memory_order_relaxed)->isa;
}

}  // namespace goodones::nn::simd
