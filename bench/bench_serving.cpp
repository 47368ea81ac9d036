// Serving-path microbenches on a ScoringService whose bundle was
// round-tripped through the ModelRegistry (exactly what a deployed fleet
// would run): one-entity request sizes, MAD-GAN's batched latent inversion
// against its per-window path, the canary mirror at several sample rates,
// and the adaptive loop's bundle hot swap. The repository benchmark
// (perfbench) measures the single-window, daemon round-trip, registry and
// kNN paths end to end.
#include "bench_common.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "data/window.hpp"
#include "detect/madgan.hpp"
#include "domains/synthtel/adapter.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"

namespace {

using namespace goodones;

/// Mini synthtel pipeline (the cheap domain): trains, bundles, persists and
/// reloads once; every case below runs against the reloaded bundle.
struct Fixture {
  std::shared_ptr<const core::DomainAdapter> domain;
  std::unique_ptr<core::RiskProfilingFramework> framework;
  std::unique_ptr<serve::ScoringService> service;
  std::vector<serve::ScoreRequest> mixed_traffic;  // one request per entity

  Fixture() {
    domain = std::make_shared<synthtel::SynthtelDomain>(3);
    core::FrameworkConfig config = domain->prepare(core::FrameworkConfig::fast());
    config.population.train_steps = 2000;
    config.population.test_steps = 600;
    config.population.seed = 11;
    config.registry.forecaster.hidden = 12;
    config.registry.forecaster.head_hidden = 8;
    config.registry.forecaster.epochs = 2;
    config.registry.train_window_step = 6;
    config.registry.aggregate_window_step = 40;
    config.profiling_campaign.window_step = 8;
    config.evaluation_campaign.window_step = 8;
    config.detector_benign_stride = 8;
    config.random_runs = 1;
    config.seed = 77;
    framework = std::make_unique<core::RiskProfilingFramework>(domain, config);

    const serve::ModelRegistry registry(core::artifacts_dir() / "bench_models");
    registry.save(serve::build_serving_model(*framework, detect::DetectorKind::kKnn));
    service = std::make_unique<serve::ScoringService>(
        registry.load(serve::registry_key(*framework, detect::DetectorKind::kKnn)));

    // Mixed traffic: every entity sends its held-out test windows.
    const auto& entities = framework->entities();
    data::WindowConfig window_config = framework->config().window;
    window_config.step = 3;
    for (const auto& entity : entities) {
      serve::ScoreRequest request;
      request.entity = entity.name;
      for (const auto& window : data::make_windows(entity.test, window_config)) {
        request.windows.push_back({window.features, window.regime});
        if (request.windows.size() >= 64) break;
      }
      mixed_traffic.push_back(std::move(request));
    }
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// One entity, Arg windows per request (1 = the interactive shape, 64 =
/// telemetry backfill).
void BM_ScoreBatch(benchmark::State& state) {
  const Fixture& f = fixture();
  serve::ScoreRequest request = f.mixed_traffic.front();
  request.windows.resize(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.service->score(request));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScoreBatch)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

/// A miniature MAD-GAN fitted on one entity's benign windows, plus a
/// request-sized batch of 32 of them.
struct MadGanFixture {
  std::unique_ptr<detect::MadGan> madgan;
  std::vector<nn::Matrix> batch;

  MadGanFixture() {
    auto& framework = *fixture().framework;
    detect::MadGanConfig config;
    config.epochs = 6;
    config.hidden = 16;
    config.num_signals = framework.domain().spec().num_channels;
    config.max_train_windows = 300;
    config.calibration_windows = 64;
    config.inversion_steps = 15;
    madgan = std::make_unique<detect::MadGan>(config);
    const auto benign = framework.benign_train_windows(0);
    madgan->fit(benign, {});
    batch.assign(benign.begin(), benign.begin() + std::min<std::size_t>(32, benign.size()));
  }
};

/// Arg 0 scores the batch window by window (anomaly_score), Arg 1 as one
/// score_batch: the latent inversion is the per-window cost it amortizes.
void BM_MadGanScore(benchmark::State& state) {
  static const MadGanFixture g;
  const std::span<const nn::Matrix> batch(g.batch);
  for (auto _ : state) {
    if (state.range(0) == 0) {
      for (const auto& window : batch) benchmark::DoNotOptimize(g.madgan->anomaly_score(window));
    } else {
      benchmark::DoNotOptimize(g.madgan->score_batch(batch));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_MadGanScore)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Canary mirroring cost on the daemon's call shape (one score() per entity
/// request). Arg is the candidate's sample rate in ppm; 0 stages no
/// candidate, 1000000 mirrors every window.
void BM_ScoreCanary(benchmark::State& state) {
  const Fixture& f = fixture();
  const auto sample_ppm = static_cast<std::uint64_t>(state.range(0));
  serve::ScoringServiceConfig config;
  config.canary.sample_per_million = sample_ppm;
  config.canary.auto_decide = false;  // measure mirroring, not promotion
  serve::ScoringService service(serve::clone_serving_model(*f.service->model()), config);
  if (sample_ppm > 0) {
    serve::ServingModel candidate = serve::clone_serving_model(*service.model());
    candidate.generation = 1;
    service.install_candidate(std::move(candidate));
  }
  std::int64_t windows = 0;
  for (auto _ : state) {
    for (const auto& request : f.mixed_traffic) {
      benchmark::DoNotOptimize(service.score(request));
      windows += static_cast<std::int64_t>(request.windows.size());
    }
  }
  state.SetItemsProcessed(windows);
}
BENCHMARK(BM_ScoreCanary)->Arg(0)->Arg(100000)->Arg(1000000);

/// The adaptive loop's atomic bundle publication: swap_model alone, with
/// the next generation cloned while the timer is paused.
void BM_SwapModel(benchmark::State& state) {
  const Fixture& f = fixture();
  serve::ScoringService service(serve::clone_serving_model(*f.service->model()));
  std::uint64_t generation = 0;
  for (auto _ : state) {
    state.PauseTiming();
    serve::ServingModel next = serve::clone_serving_model(*service.model());
    next.generation = ++generation;
    state.ResumeTiming();
    service.swap_model(std::move(next));
  }
}
BENCHMARK(BM_SwapModel);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "goodones serving bench (synthtel mini fleet, bundle "
               "round-tripped through the ModelRegistry)\n";
  return goodones::bench::run_microbenchmarks(argc, argv);
}
