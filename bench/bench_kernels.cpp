// Kernel microbenchmarks across the substrate: the nn::simd dispatch lanes
// (every lane this machine can run, per kernel, against glibc exp/tanh),
// pack_step_major, LSTM forward/backward, BiLSTM forecaster inference,
// glucose simulation, window extraction, scaling and matrix multiplication.
// One place to watch for performance regressions in the primitives every
// experiment depends on.
#include "bench_common.hpp"

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "data/scaler.hpp"
#include "data/timeseries.hpp"
#include "data/window.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/simd.hpp"
#include "predict/bilstm_forecaster.hpp"
#include "domains/bgms/cohort.hpp"
#include "domains/bgms/patient.hpp"

namespace {

using namespace goodones;

nn::Matrix random_matrix(std::size_t rows, std::size_t cols, common::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& x : m.row(r)) x = rng.uniform(-1.0, 1.0);
  }
  return m;
}

void BM_MatMul(benchmark::State& state) {
  common::Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const nn::Matrix a = random_matrix(n, n, rng);
  const nn::Matrix b = random_matrix(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128);

void BM_LstmForward(benchmark::State& state) {
  common::Rng rng(5);
  const nn::Lstm lstm(4, static_cast<std::size_t>(state.range(0)), rng);
  const nn::Matrix x = random_matrix(12, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.forward(x));
  }
}
BENCHMARK(BM_LstmForward)->Arg(24)->Arg(64);

void BM_LstmForwardBackward(benchmark::State& state) {
  common::Rng rng(7);
  nn::Lstm lstm(4, static_cast<std::size_t>(state.range(0)), rng);
  const nn::Matrix x = random_matrix(12, 4, rng);
  const nn::Matrix grad = random_matrix(12, static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    nn::Lstm::Cache cache;
    lstm.forward_cached(x, cache);
    benchmark::DoNotOptimize(lstm.backward(grad, cache));
    nn::zero_all_grads(lstm.parameters());
  }
}
BENCHMARK(BM_LstmForwardBackward)->Arg(24)->Arg(64);

void BM_ForecasterPredict(benchmark::State& state) {
  bgms::CohortConfig cohort_config;
  cohort_config.train_steps = 600;
  cohort_config.test_steps = 60;
  const auto trace = bgms::generate_patient({bgms::Subset::kA, 0}, cohort_config);
  const auto series = bgms::to_series(trace.train);

  predict::ForecasterConfig config;
  config.hidden = static_cast<std::size_t>(state.range(0));
  config.epochs = 1;
  predict::BiLstmForecaster model(config, predict::fit_forecaster_scaler(series.values, bgms::kCgm,
                                                           bgms::kMinGlucose, bgms::kMaxGlucose));
  const auto windows = data::make_windows(series, {});
  model.train({windows.begin(), windows.begin() + 50});

  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(windows.front().features));
  }
}
BENCHMARK(BM_ForecasterPredict)->Arg(24)->Arg(32);

void BM_GlucoseSimulation(benchmark::State& state) {
  const auto params = bgms::patient_parameters({bgms::Subset::kA, 3});
  for (auto _ : state) {
    bgms::GlucoseSimulator simulator(params, 42);
    benchmark::DoNotOptimize(simulator.run(static_cast<std::size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GlucoseSimulation)->Arg(1000)->Arg(10000);

void BM_WindowExtraction(benchmark::State& state) {
  bgms::CohortConfig config;
  config.train_steps = static_cast<std::size_t>(state.range(0));
  config.test_steps = 20;
  const auto trace = bgms::generate_patient({bgms::Subset::kB, 0}, config);
  const auto series = bgms::to_series(trace.train);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::make_windows(series, {}));
  }
}
BENCHMARK(BM_WindowExtraction)->Arg(2000)->Arg(10000);

void BM_ScalerTransform(benchmark::State& state) {
  common::Rng rng(13);
  const nn::Matrix data = random_matrix(static_cast<std::size_t>(state.range(0)), 4, rng);
  data::MinMaxScaler scaler;
  scaler.fit(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scaler.transform(data));
  }
}
BENCHMARK(BM_ScalerTransform)->Arg(1000);

void BM_PackStepMajor(benchmark::State& state) {
  common::Rng rng(17);
  const auto blocks_n = static_cast<std::size_t>(state.range(0));
  std::vector<nn::Matrix> blocks;
  for (std::size_t i = 0; i < blocks_n; ++i) blocks.push_back(random_matrix(24, 4, rng));
  std::vector<const nn::Matrix*> block_ptrs;
  for (const nn::Matrix& block : blocks) block_ptrs.push_back(&block);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::pack_step_major(block_ptrs, 0, 24));
  }
  state.SetItemsProcessed(state.iterations() * blocks_n * 24);
}
// Arg(1) hits the contiguous single-memcpy fast path; Arg(32) the
// step-major interleave.
BENCHMARK(BM_PackStepMajor)->Arg(1)->Arg(32);

// --- dispatch lanes ------------------------------------------------------------
//
// Each BM_Lane* case runs one KernelTable entry on the shapes the
// forecaster actually runs: the input projection GEMM (rows x 4 times
// 4 x 4h), the recurrent GEMM (batch x h times h x 4h), and the per-row
// LSTM gate math. main() registers every case once per lane that
// nn::simd::table_for returns, as BM_Lane<Kernel>/<isa>.

/// Forecaster-shaped operands shared by the lane cases.
struct LaneOperands {
  static constexpr std::size_t h = 24;      // forecaster hidden size
  static constexpr std::size_t rows = 128;  // packed batch*time rows
  static constexpr std::size_t batch = 8;
  common::Rng rng{23};
  nn::Matrix x = random_matrix(rows, 4, rng);
  nn::Matrix wx = random_matrix(4, 4 * h, rng);
  nn::Matrix hs = random_matrix(batch, h, rng);
  nn::Matrix wh = random_matrix(h, 4 * h, rng);
  nn::Matrix bias = random_matrix(1, 4 * h, rng);
  nn::Matrix pre = random_matrix(batch, 4 * h, rng);
  /// One gate row-step's worth of pre-activations (4h = 96).
  std::vector<double> gate_pre{pre.row(0).begin(), pre.row(0).end()};
  std::vector<double> cell = std::vector<double>(h, 0.1);
  std::vector<double> hidden = std::vector<double>(h, 0.1);
  std::vector<double> out = std::vector<double>(4 * h);
};

using Kernels = nn::simd::KernelTable;

void BM_LaneMatmulBias(benchmark::State& state, const Kernels* kt) {
  LaneOperands op;
  nn::Matrix proj(op.rows, 4 * op.h);
  for (auto _ : state) {
    kt->matmul_bias(op.x.data(), op.wx.data(), op.bias.data(), proj.data(), op.rows, 4,
                    4 * op.h);
    benchmark::DoNotOptimize(proj.data());
    benchmark::ClobberMemory();
  }
}

void BM_LaneMatmulAcc(benchmark::State& state, const Kernels* kt) {
  LaneOperands op;
  for (auto _ : state) {
    kt->matmul_acc(op.hs.data(), op.wh.data(), op.pre.data(), op.batch, op.h, 4 * op.h);
    benchmark::DoNotOptimize(op.pre.data());
    benchmark::ClobberMemory();
  }
}

void BM_LaneLstmGates(benchmark::State& state, const Kernels* kt) {
  LaneOperands op;
  for (auto _ : state) {
    kt->lstm_gates(op.gate_pre.data(), op.h, op.cell.data(), op.hidden.data());
    benchmark::DoNotOptimize(op.hidden.data());
    benchmark::ClobberMemory();
  }
}

// The dense activations' tanh over one gate row-step's worth of inputs.
void BM_LaneTanh(benchmark::State& state, const Kernels* kt) {
  LaneOperands op;
  for (auto _ : state) {
    kt->tanh_n(op.gate_pre.data(), op.out.data(), op.out.size());
    benchmark::DoNotOptimize(op.out.data());
    benchmark::ClobberMemory();
  }
}

// The glibc functions the repository's transcendentals replaced: scalar
// libm exp/tanh over the same 96 inputs, for comparison with the lanes.
void BM_GlibcExp(benchmark::State& state) {
  LaneOperands op;
  for (auto _ : state) {
    for (std::size_t i = 0; i < op.out.size(); ++i) op.out[i] = std::exp(op.gate_pre[i]);
    benchmark::DoNotOptimize(op.out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GlibcExp);

void BM_GlibcTanh(benchmark::State& state) {
  LaneOperands op;
  for (auto _ : state) {
    for (std::size_t i = 0; i < op.out.size(); ++i) op.out[i] = std::tanh(op.gate_pre[i]);
    benchmark::DoNotOptimize(op.out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GlibcTanh);

void register_lane_benchmarks() {
  namespace simd = nn::simd;
  const std::pair<const char*, void (*)(benchmark::State&, const Kernels*)> cases[] = {
      {"BM_LaneMatmulBias", BM_LaneMatmulBias},
      {"BM_LaneMatmulAcc", BM_LaneMatmulAcc},
      {"BM_LaneLstmGates", BM_LaneLstmGates},
      {"BM_LaneTanh", BM_LaneTanh}};
  for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    const Kernels* kt = simd::table_for(isa);
    if (kt == nullptr) continue;
    for (const auto& [name, fn] : cases) {
      benchmark::RegisterBenchmark((std::string(name) + "/" + simd::isa_name(isa)).c_str(), fn,
                                   kt);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "goodones kernel bench — active SIMD lane: "
            << nn::simd::isa_name(nn::simd::active_isa()) << "\n";
  register_lane_benchmarks();
  return goodones::bench::run_microbenchmarks(argc, argv);
}
