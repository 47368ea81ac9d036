// Measures the serving path end to end: windows-scored/sec through a
// ScoringService whose bundle was round-tripped through the ModelRegistry
// (exactly what a deployed fleet would run), across request shapes — single
// window, per-entity batches, and mixed multi-entity traffic — plus the
// registry's own save/load latency, the detector score_batch speedup
// (MAD-GAN's batched latent inversion vs its per-window path; kNN, whose
// k-d tree index answers each query alone, through the base-class loop)
// and the adaptive loop's bundle hot-swap
// latency. Results land in BENCH_serving.json (name, iters, ns_per_op,
// probes_per_sec = windows/sec) so serving throughput is tracked across
// PRs.
#include "bench_common.hpp"

#include <chrono>
#include <filesystem>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "data/window.hpp"
#include "detect/knn.hpp"
#include "detect/madgan.hpp"
#include "domains/synthtel/adapter.hpp"
#include "serve/daemon.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"

namespace {

using namespace goodones;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Mini synthtel pipeline (the cheap domain): trains, bundles, persists and
/// reloads once; every timing below runs against the reloaded bundle.
struct Fixture {
  std::shared_ptr<const core::DomainAdapter> domain;
  std::unique_ptr<core::RiskProfilingFramework> framework;
  std::unique_ptr<serve::ScoringService> service;
  std::vector<serve::ScoreRequest> mixed_traffic;  // one request per entity
  double save_seconds = 0.0;
  double load_seconds = 0.0;

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

    serve::ServingModel model =
        serve::build_serving_model(*framework, detect::DetectorKind::kKnn);

    const serve::ModelRegistry registry(core::artifacts_dir() / "bench_models");
    const auto save_start = Clock::now();
    registry.save(model);
    save_seconds = seconds_since(save_start);
    const auto load_start = Clock::now();
    serve::ServingModel reloaded =
        registry.load(serve::registry_key(*framework, detect::DetectorKind::kKnn));
    load_seconds = seconds_since(load_start);

    service = std::make_unique<serve::ScoringService>(std::move(reloaded));

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

/// Times `run` which scores `windows_per_rep` windows per call.
template <typename Fn>
bench::BenchRecord time_windows(const std::string& name, std::size_t reps,
                                std::size_t windows_per_rep, Fn&& run) {
  const auto start = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) run();
  const double seconds = seconds_since(start);
  const double total = static_cast<double>(reps * windows_per_rep);
  bench::BenchRecord record;
  record.name = name;
  record.iters = reps;
  record.ns_per_op = seconds * 1e9 / total;
  record.probes_per_sec = total / seconds;
  return record;
}

void run_serving_modes(std::vector<bench::BenchRecord>& records) {
  const Fixture& f = fixture();
  const auto& service = *f.service;

  // (a) single-window request (interactive shape).
  serve::ScoreRequest single = f.mixed_traffic.front();
  single.windows.resize(1);
  records.push_back(time_windows("serve_single_window", 400, 1, [&] {
    benchmark::DoNotOptimize(service.score(single));
  }));

  // (b) one entity, batched windows (telemetry backfill shape).
  serve::ScoreRequest batched = f.mixed_traffic.front();
  records.push_back(
      time_windows("serve_one_entity_batch", 50, batched.windows.size(), [&] {
        benchmark::DoNotOptimize(service.score(batched));
      }));

  // (c) mixed fleet traffic: all entities at once, sharded across the pool.
  std::size_t total_windows = 0;
  for (const auto& request : f.mixed_traffic) total_windows += request.windows.size();
  records.push_back(time_windows("serve_mixed_fleet_traffic", 30, total_windows, [&] {
    benchmark::DoNotOptimize(
        service.score_batch(std::span<const serve::ScoreRequest>(f.mixed_traffic)));
  }));

  // Registry round-trip latency (train once, score forever hinges on it).
  bench::BenchRecord save_record;
  save_record.name = "registry_save_seconds";
  save_record.iters = 1;
  save_record.ns_per_op = f.save_seconds * 1e9;
  records.push_back(save_record);
  bench::BenchRecord load_record;
  load_record.name = "registry_load_seconds";
  load_record.iters = 1;
  load_record.ns_per_op = f.load_seconds * 1e9;
  records.push_back(load_record);

  std::cout << "serving throughput (windows/sec): single "
            << records[0].probes_per_sec << ", one-entity batch "
            << records[1].probes_per_sec << ", mixed fleet "
            << records[2].probes_per_sec << "\n"
            << "registry: save " << f.save_seconds * 1e3 << " ms, load "
            << f.load_seconds * 1e3 << " ms\n";
}

/// Detector score_batch vs per-window anomaly_score, on the detectors the
/// serving path actually routes to. MAD-GAN is the headline (its latent
/// inversion is the per-window cost the batch amortizes); kNN's records
/// (names kept) time its k-d tree index on the sample-level path, where
/// score_batch is the base-class loop over the same queries.
void run_detector_batching(std::vector<bench::BenchRecord>& records) {
  const Fixture& f = fixture();
  auto& framework = *f.framework;

  // MAD-GAN: train a miniature GAN on one entity's benign windows, then
  // score a request-sized batch both ways.
  detect::MadGanConfig gan_config;
  gan_config.epochs = 6;
  gan_config.hidden = 16;
  gan_config.num_signals = framework.domain().spec().num_channels;
  gan_config.max_train_windows = 300;
  gan_config.calibration_windows = 64;
  gan_config.inversion_steps = 15;
  detect::MadGan madgan(gan_config);
  const auto benign_windows = framework.benign_train_windows(0);
  madgan.fit(benign_windows, {});

  std::vector<nn::Matrix> gan_batch(benign_windows.begin(),
                                    benign_windows.begin() +
                                        std::min<std::size_t>(32, benign_windows.size()));
  records.push_back(time_windows("madgan_per_window_score", 3, gan_batch.size(), [&] {
    for (const auto& window : gan_batch) {
      benchmark::DoNotOptimize(madgan.anomaly_score(window));
    }
  }));
  records.push_back(time_windows("madgan_score_batch", 3, gan_batch.size(), [&] {
    benchmark::DoNotOptimize(madgan.score_batch(std::span<const nn::Matrix>(gan_batch)));
  }));

  // kNN: the bundle's own cluster detector consumes sample-level rows.
  detect::KnnDetector knn;
  const auto knn_benign = framework.benign_train_samples(0);
  const auto knn_malicious = framework.malicious_samples(framework.profiling_outcomes(0));
  std::vector<nn::Matrix> knn_mal = knn_malicious;
  if (knn_mal.empty()) knn_mal.push_back(knn_benign.front());
  knn.fit(knn_benign, knn_mal);
  std::vector<nn::Matrix> knn_batch(knn_benign.begin(),
                                    knn_benign.begin() +
                                        std::min<std::size_t>(64, knn_benign.size()));
  records.push_back(time_windows("knn_per_window_score", 20, knn_batch.size(), [&] {
    for (const auto& sample : knn_batch) {
      benchmark::DoNotOptimize(knn.anomaly_score(sample));
    }
  }));
  records.push_back(time_windows("knn_score_batch", 20, knn_batch.size(), [&] {
    benchmark::DoNotOptimize(knn.score_batch(std::span<const nn::Matrix>(knn_batch)));
  }));

  const double madgan_speedup =
      records[records.size() - 4].probes_per_sec > 0
          ? records[records.size() - 3].probes_per_sec /
                records[records.size() - 4].probes_per_sec
          : 0.0;
  std::cout << "detector batching (windows/sec): MAD-GAN per-window "
            << records[records.size() - 4].probes_per_sec << " vs batched "
            << records[records.size() - 3].probes_per_sec << " (x" << madgan_speedup
            << "), kNN per-window " << records[records.size() - 2].probes_per_sec
            << " vs batched " << records[records.size() - 1].probes_per_sec << "\n";
}

/// Mirroring overhead: the same mixed-fleet shape as run_serving_modes,
/// but with a canary candidate staged. At the default 10% sample rate the
/// primary path should stay within ~10% of the canary-off number (the
/// BENCHMARKS.md target); the full-mirror row bounds the worst case.
void run_canary_overhead(std::vector<bench::BenchRecord>& records) {
  const Fixture& f = fixture();
  std::size_t total_windows = 0;
  for (const auto& request : f.mixed_traffic) total_windows += request.windows.size();

  const auto canaried_run = [&](const char* name, std::uint64_t sample_ppm) {
    serve::ScoringServiceConfig config;
    config.canary.sample_per_million = sample_ppm;
    config.canary.auto_decide = false;  // measure mirroring, not promotion
    serve::ScoringService service(serve::clone_serving_model(*f.service->model()),
                                  config);
    serve::ServingModel candidate = serve::clone_serving_model(*service.model());
    candidate.generation = 1;
    service.install_candidate(std::move(candidate));
    records.push_back(time_windows(name, 30, total_windows, [&] {
      benchmark::DoNotOptimize(
          service.score_batch(std::span<const serve::ScoreRequest>(f.mixed_traffic)));
    }));
  };
  canaried_run("serve_mixed_fleet_canary_10pct", 100000);
  canaried_run("serve_mixed_fleet_canary_full_mirror", 1000000);

  const std::size_t n = records.size();
  std::cout << "canary mirroring (windows/sec): 10% sample "
            << records[n - 2].probes_per_sec << ", full mirror "
            << records[n - 1].probes_per_sec << "\n";
}

/// Latency of the adaptive loop's atomic bundle publication: clone N
/// generations up front, then time swap_model alone (what a refresh adds on
/// top of its rebuild).
void run_hot_swap(std::vector<bench::BenchRecord>& records) {
  const Fixture& f = fixture();
  serve::ScoringService service(serve::clone_serving_model(*f.service->model()),
                                {.threads = 2});
  constexpr std::size_t kSwaps = 16;
  std::vector<serve::ServingModel> generations;
  generations.reserve(kSwaps);
  for (std::size_t i = 0; i < kSwaps; ++i) {
    serve::ServingModel next = serve::clone_serving_model(*service.model());
    next.generation = i + 1;
    generations.push_back(std::move(next));
  }

  const auto start = Clock::now();
  for (auto& model : generations) service.swap_model(std::move(model));
  const double seconds = seconds_since(start);

  bench::BenchRecord record;
  record.name = "bundle_hot_swap_seconds";
  record.iters = kSwaps;
  record.ns_per_op = seconds * 1e9 / static_cast<double>(kSwaps);
  records.push_back(record);
  std::cout << "bundle hot swap: " << record.ns_per_op / 1e3 << " us per publish ("
            << kSwaps << " generations)\n";
}

/// The daemon round trip: the same single-window and one-entity-batch
/// shapes as run_serving_modes, but over the Unix socket through a
/// DaemonClient — so BENCH_serving.json tracks the IPC overhead (framing,
/// syscalls, connection-handler hop) against the in-process numbers.
void run_daemon_roundtrip(std::vector<bench::BenchRecord>& records) {
  const Fixture& f = fixture();
  serve::DaemonConfig config;
  const std::filesystem::path socket_path =
      std::filesystem::temp_directory_path() /
      ("goodones_bench_daemon_" + std::to_string(::getpid()) + ".sock");
  config.listen = common::Endpoint::unix_socket(socket_path);
  config.registry_root = core::artifacts_dir() / "bench_models";
  config.adaptive_enabled = false;  // measure the wire, not the profiler
  serve::Daemon daemon(serve::clone_serving_model(*f.service->model()), config);
  daemon.start();
  serve::DaemonClient client(socket_path);

  serve::ScoreRequest single = f.mixed_traffic.front();
  single.windows.resize(1);
  records.push_back(time_windows("daemon_single_window_roundtrip", 400, 1, [&] {
    benchmark::DoNotOptimize(client.score(single));
  }));

  const serve::ScoreRequest& batched = f.mixed_traffic.front();
  records.push_back(time_windows("daemon_one_entity_batch_roundtrip", 50,
                                 batched.windows.size(), [&] {
    benchmark::DoNotOptimize(client.score(batched));
  }));

  daemon.stop();
  const std::size_t n = records.size();
  std::cout << "daemon round trip (windows/sec over the socket): single "
            << records[n - 2].probes_per_sec << ", one-entity batch "
            << records[n - 1].probes_per_sec << "\n";
}

void BM_ScoreSingleWindow(benchmark::State& state) {
  const Fixture& f = fixture();
  serve::ScoreRequest single = f.mixed_traffic.front();
  single.windows.resize(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.service->score(single));
  }
}
BENCHMARK(BM_ScoreSingleWindow);

void BM_ScoreBatch(benchmark::State& state) {
  const Fixture& f = fixture();
  serve::ScoreRequest request = f.mixed_traffic.front();
  request.windows.resize(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.service->score(request));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScoreBatch)->Arg(8)->Arg(32)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "goodones serving bench (synthtel mini fleet, bundle "
               "round-tripped through the ModelRegistry)\n";
  std::vector<bench::BenchRecord> records;
  run_serving_modes(records);
  run_detector_batching(records);
  run_canary_overhead(records);
  run_hot_swap(records);
  run_daemon_roundtrip(records);
  bench::save_bench_json(records, "serving");
  return goodones::bench::run_microbenchmarks(argc, argv);
}
