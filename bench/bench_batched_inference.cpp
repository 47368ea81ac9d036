// Measures the batched inference execution path against the scalar
// reference: forecaster probes through per-candidate predict() calls and
// through predict_batch on probe batches that share a prefix (the greedy
// evasion shape), plus end-to-end greedy-campaign throughput across the
// execution modes of the one campaign engine (BM_GreedyCampaign).
#include "bench_common.hpp"

#include <vector>

#include "attack/campaign.hpp"
#include "attack/evasion.hpp"
#include "data/timeseries.hpp"
#include "data/window.hpp"
#include "domains/bgms/cohort.hpp"
#include "domains/bgms/patient.hpp"
#include "nn/simd.hpp"
#include "predict/bilstm_forecaster.hpp"

namespace {

using namespace goodones;

struct Fixture {
  std::unique_ptr<predict::BiLstmForecaster> model;
  std::vector<data::Window> windows;

  Fixture() {
    bgms::CohortConfig cohort;
    cohort.train_steps = 1200;
    cohort.test_steps = 400;
    cohort.seed = 9;
    const auto trace = bgms::generate_patient({bgms::Subset::kA, 2}, cohort);
    const auto train_series = bgms::to_series(trace.train);

    predict::ForecasterConfig config;
    config.hidden = 24;
    config.head_hidden = 16;
    config.epochs = 2;
    model = std::make_unique<predict::BiLstmForecaster>(
        config, predict::fit_forecaster_scaler(train_series.values, bgms::kCgm,
                                               bgms::kMinGlucose, bgms::kMaxGlucose));
    data::WindowConfig window_config;
    window_config.step = 4;
    model->train(data::make_windows(train_series, window_config));
    windows = data::make_windows(bgms::to_series(trace.test), {});
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// Forwards only predict(), so every predict_batch call takes Forecaster's
/// default loop over predict(): the scalar path.
class PredictOnly final : public predict::Forecaster {
 public:
  explicit PredictOnly(const predict::Forecaster& model) : model_(model) {}
  double predict(const nn::Matrix& x) const override { return model_.predict(x); }

 private:
  const predict::Forecaster& model_;
};

/// Probe batch in the greedy-search shape: copies of one window differing at
/// a single timestep.
std::vector<nn::Matrix> probe_batch(const nn::Matrix& base, std::size_t t, std::size_t n) {
  std::vector<nn::Matrix> probes(n, base);
  for (std::size_t vi = 0; vi < n; ++vi) {
    probes[vi](t, bgms::kCgm) = 180.0 + 40.0 * static_cast<double>(vi);
  }
  return probes;
}

void BM_PredictScalar(benchmark::State& state) {
  const auto& f = fixture();
  const nn::Matrix& base = f.windows.front().features;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->predict(base));
  }
}
BENCHMARK(BM_PredictScalar);

/// Args {probes, edited row}: the planner finds the shared prefix and the
/// BiLSTM replays only the rows from the edit on. 6 probes is the
/// AttackConfig default value_candidates; row 11 is the last of a 12-step
/// window, row 6 the middle.
void BM_PredictBatchProbes(benchmark::State& state) {
  const auto& f = fixture();
  const auto probes =
      probe_batch(f.windows.front().features, static_cast<std::size_t>(state.range(1)),
                  static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->predict_batch(probes));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredictBatchProbes)->Args({6, 11})->Args({32, 11})->Args({6, 6});

void BM_AttackWindowBatched(benchmark::State& state) {
  const auto& f = fixture();
  const PredictOnly scalar_model(*f.model);
  const predict::Forecaster& model =
      state.range(0) != 0 ? static_cast<const predict::Forecaster&>(*f.model) : scalar_model;
  const attack::EvasionAttack attack(attack::AttackConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.attack_window(model, f.windows[3]));
  }
}
BENCHMARK(BM_AttackWindowBatched)->Arg(0)->Arg(1);

/// End-to-end greedy evasion campaign, one execution mode per arg:
///   0  every probe one predict() call (the campaign on a predict-only
///      wrapper);
///   1  per-window batched (shard_size 1);
///   2  cross-window lockstep: 16 windows' probes per predict_batch round;
///   3  lockstep with kFast probes (final trajectories re-verified exactly).
/// probes_per_s counts the probes every outcome reports. The campaign runs
/// on a one-worker pool, so the rate needs wall-clock time (UseRealTime).
void BM_GreedyCampaign(benchmark::State& state) {
  const auto& f = fixture();
  const PredictOnly scalar_model(*f.model);
  const int mode = static_cast<int>(state.range(0));
  const predict::Forecaster& model =
      mode == 0 ? static_cast<const predict::Forecaster&>(scalar_model) : *f.model;
  common::ThreadPool pool(1);  // single worker: isolate the execution path
  attack::CampaignConfig config;
  config.window_step = 2;
  config.attack.probe_precision = mode == 3 ? nn::Precision::kFast : nn::Precision::kDouble;
  config.shard_size = mode == 1 ? 1 : 16;
  double probes = 0.0;
  for (auto _ : state) {
    const auto outcomes = attack::run_campaign(model, f.windows, config, pool);
    for (const auto& o : outcomes) probes += static_cast<double>(o.attack.probes);
  }
  state.counters["probes_per_s"] = benchmark::Counter(probes, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GreedyCampaign)
    ->DenseRange(0, 3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "goodones batched-inference bench (trained BGMS surrogate, "
            << fixture().windows.size() << " test windows)\n";
  return goodones::bench::run_microbenchmarks(argc, argv);
}
