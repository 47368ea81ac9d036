// Measures the batched inference execution path against the scalar
// reference: forecaster probes/sec for (a) per-candidate scalar predict()
// calls, (b) predict_batch on unrelated windows (packed GEMMs, no shared
// rows), and (c) predict_batch on probe batches with shared prefixes (the
// greedy evasion shape), plus end-to-end greedy-campaign throughput across
// the execution modes: scalar probes (the campaign on a predict-only wrapper,
// so every probe is one predict() call), per-window batched (one window per
// shard), cross-window lockstep (16 windows' probes per predict_batch
// round), and lockstep with fast-math probes (Precision::kFast polynomial
// gate transcendentals, final trajectories re-verified exactly). Results
// land in BENCH_batched_inference.json (name, iters, ns/op, probes/sec) so
// the speedup is tracked across PRs.
#include "bench_common.hpp"

#include <chrono>
#include <vector>

#include "attack/campaign.hpp"
#include "attack/evasion.hpp"
#include "common/rng.hpp"
#include "data/timeseries.hpp"
#include "data/window.hpp"
#include "domains/bgms/cohort.hpp"
#include "domains/bgms/patient.hpp"
#include "nn/simd.hpp"
#include "predict/bilstm_forecaster.hpp"

namespace {

using namespace goodones;
using Clock = std::chrono::steady_clock;

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

/// Forwards only predict() and input_gradient(), so every predict_batch
/// call takes Forecaster's default loop over predict(): the scalar path.
class PredictOnly final : public predict::Forecaster {
 public:
  explicit PredictOnly(const predict::Forecaster& model) : model_(model) {}
  double predict(const nn::Matrix& x) const override { return model_.predict(x); }
  nn::Matrix input_gradient(const nn::Matrix& x) const override {
    return model_.input_gradient(x);
  }

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

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times `probes` forecaster evaluations per rep and returns a record with
/// probes/sec; `run` must evaluate exactly `probes_per_rep` windows.
template <typename Fn>
bench::BenchRecord time_probes(const std::string& name, std::size_t reps,
                               std::size_t probes_per_rep, Fn&& run) {
  const auto start = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) run();
  const double seconds = seconds_since(start);
  const double total = static_cast<double>(reps * probes_per_rep);
  bench::BenchRecord record;
  record.name = name;
  record.iters = reps;
  record.ns_per_op = seconds * 1e9 / total;
  record.probes_per_sec = total / seconds;
  return record;
}

void run_probe_modes(std::vector<bench::BenchRecord>& records) {
  const auto& f = fixture();
  const nn::Matrix& base = f.windows.front().features;
  const std::size_t batch_size = 6;  // AttackConfig default value_candidates
  const std::size_t reps = bench::bench_reps(400);

  // (a) scalar: one predict() per candidate.
  const auto probes = probe_batch(base, base.rows() - 1, batch_size);
  records.push_back(time_probes("probe_scalar_predict", reps, batch_size, [&] {
    for (const auto& p : probes) benchmark::DoNotOptimize(f.model->predict(p));
  }));

  // (b) batched, no shared rows: unrelated windows -> packed GEMMs only.
  std::vector<nn::Matrix> unrelated;
  for (std::size_t i = 0; i < batch_size; ++i) {
    unrelated.push_back(f.windows[1 + 7 * i].features);
  }
  records.push_back(time_probes("probe_batched_no_shared_prefix", reps, batch_size, [&] {
    benchmark::DoNotOptimize(f.model->predict_batch(unrelated));
  }));

  // (c) batched probe batches, editing the last / middle timestep: the
  // planner finds the shared prefix and the BiLSTM replays only the tail.
  records.push_back(time_probes("probe_batched_prefix_cache_last_step", reps, batch_size, [&] {
    benchmark::DoNotOptimize(f.model->predict_batch(probes));
  }));
  const auto mid_probes = probe_batch(base, base.rows() / 2, batch_size);
  records.push_back(time_probes("probe_batched_prefix_cache_mid_step", reps, batch_size, [&] {
    benchmark::DoNotOptimize(f.model->predict_batch(mid_probes));
  }));
}

/// End-to-end greedy evasion campaign across the execution modes.
void run_campaign_modes(std::vector<bench::BenchRecord>& records) {
  const auto& f = fixture();
  const PredictOnly scalar_model(*f.model);
  common::ThreadPool pool(1);  // single-threaded: isolate the execution path

  struct Mode {
    const char* name;
    const predict::Forecaster* model;
    /// Windows per shard: lockstep merges up to this many windows' probes
    /// per predict_batch round.
    std::size_t shard_size;
    /// Probe lane (AttackConfig::probe_precision): kFast keeps the final
    /// trajectories re-verified through the exact model — the production
    /// fast-campaign shape.
    nn::Precision probe_precision;
  };

  const auto run_mode = [&](const Mode& mode) {
    attack::CampaignConfig config;
    config.window_step = 2;
    config.attack.search = attack::SearchKind::kOrderedGreedy;
    config.attack.probe_precision = mode.probe_precision;
    config.shard_size = mode.shard_size;
    const auto start = Clock::now();
    const auto outcomes = attack::run_campaign(*mode.model, f.windows, config, pool);
    const double seconds = seconds_since(start);
    std::size_t probes = 0;
    for (const auto& o : outcomes) probes += o.attack.probes;
    bench::BenchRecord record;
    record.name = mode.name;
    record.iters = outcomes.size();
    record.ns_per_op = seconds * 1e9 / static_cast<double>(probes);
    record.probes_per_sec = static_cast<double>(probes) / seconds;
    records.push_back(record);
    return record;
  };

  const auto scalar =
      run_mode({"greedy_campaign_scalar", &scalar_model, 16, nn::Precision::kDouble});
  const auto batched =
      run_mode({"greedy_campaign_batched", f.model.get(), 1, nn::Precision::kDouble});
  const auto lockstep =
      run_mode({"greedy_campaign_lockstep", f.model.get(), 16, nn::Precision::kDouble});
  const auto fast =
      run_mode({"greedy_campaign_lockstep_fast", f.model.get(), 16, nn::Precision::kFast});

  const double speedup = lockstep.probes_per_sec / scalar.probes_per_sec;
  bench::BenchRecord ratio;
  ratio.name = "greedy_campaign_speedup_x";
  ratio.iters = 1;
  ratio.probes_per_sec = speedup;
  records.push_back(ratio);
  const double fast_speedup = fast.probes_per_sec / scalar.probes_per_sec;
  bench::BenchRecord fast_ratio;
  fast_ratio.name = "greedy_campaign_fast_speedup_x";
  fast_ratio.iters = 1;
  fast_ratio.probes_per_sec = fast_speedup;
  records.push_back(fast_ratio);
  std::cout << "greedy campaign probes/sec: scalar " << scalar.probes_per_sec
            << ", batched " << batched.probes_per_sec << ", lockstep "
            << lockstep.probes_per_sec << ", lockstep+fast " << fast.probes_per_sec << " -> " << speedup
            << "x exact, " << fast_speedup << "x fast (target >= 10x)\n";
}

void BM_PredictScalar(benchmark::State& state) {
  const auto& f = fixture();
  const nn::Matrix& base = f.windows.front().features;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->predict(base));
  }
}
BENCHMARK(BM_PredictScalar);

void BM_PredictBatchProbes(benchmark::State& state) {
  const auto& f = fixture();
  const auto probes = probe_batch(f.windows.front().features, 11,
                                  static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->predict_batch(probes));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredictBatchProbes)->Arg(6)->Arg(32);

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

}  // namespace

int main(int argc, char** argv) {
  std::cout << "goodones batched-inference bench (trained BGMS surrogate, "
            << fixture().windows.size() << " test windows)\n";
  std::vector<bench::BenchRecord> records;
  run_probe_modes(records);
  run_campaign_modes(records);
  bench::save_bench_json(records, "batched_inference");
  return goodones::bench::run_microbenchmarks(argc, argv);
}
