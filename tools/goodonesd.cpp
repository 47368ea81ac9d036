// goodonesd — the long-lived serving daemon, runnable.
//
// Trains (first run) or loads (every later run) a miniature synthtel
// serving bundle through the ModelRegistry, then serves it over any
// transport the endpoint seam names until a Shutdown frame arrives. The
// adaptive loop is live: scored traffic feeds the online risk profiler and
// partition moves publish new bundle generations in the background
// (routing-only refreshes — the daemon binary has no training framework to
// retrain detectors with once the bundle is cached; embed serve::Daemon
// with a rebuilder for that).
//
//   goodonesd --listen unix:/tmp/goodones.sock [--entities 3] [--threads 0]
//   goodonesd --listen tcp:127.0.0.1:7401 ...       # a mesh shard
//   goodonesd --socket /tmp/goodones.sock ...       # unix shorthand
//             [--detector knn|ocsvm|madgan] [--reassess 256]
//             [--store-root DIR] [--store-capacity 4096] [--no-store-mmap]
//             [--canary] [--canary-sample-ppm 100000] [--canary-min-windows 256]
//             [--canary-max-flag-delta 0.1] [--no-canary-auto]
//
// --canary turns on measured rollouts: Refresh rebuilds are STAGED as
// candidates and mirrored against sampled traffic; the canary policy (or
// goodonesd_client promote/rollback) decides whether they become primary.
// --no-canary-auto disables the policy's auto-decision — candidates wait
// for an operator verdict while the mirror keeps accumulating evidence.
//
// --store-root persists the daemon-owned telemetry store (Ingest /
// ScoreLatest frames) under DIR; without it the store is memory-only and
// history dies with the process.
//
// Pair with goodonesd_client (score / stats / refresh / shutdown).
//
// Exit status: 2 for a bad command line (a malformed flag value prints
// "goodonesd: <flag>: <message>"), 1 when start-up fails, 0 after a clean
// shutdown.
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "common/socket.hpp"
#include "core/framework.hpp"
#include "domains/synthtel/adapter.hpp"
#include "serve/daemon.hpp"

#include "parse_number.hpp"

using namespace goodones;

namespace {

core::FrameworkConfig mini_config(const core::DomainAdapter& domain) {
  core::FrameworkConfig config = domain.prepare(core::FrameworkConfig::fast());
  config.population.train_steps = 2000;
  config.population.test_steps = 600;
  config.registry.forecaster.hidden = 12;
  config.registry.forecaster.epochs = 2;
  config.registry.train_window_step = 6;
  config.registry.aggregate_window_step = 40;
  config.profiling_campaign.window_step = 8;
  config.evaluation_campaign.window_step = 8;
  config.detector_benign_stride = 8;
  config.random_runs = 1;
  return config;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --listen ENDPOINT | --socket PATH [--entities N] [--threads N] "
               "[--detector knn|ocsvm|madgan] [--reassess WINDOWS] "
               "[--store-root DIR] [--store-capacity TICKS] [--no-store-mmap] "
               "[--canary] [--canary-sample-ppm PPM] [--canary-min-windows N] "
               "[--canary-max-flag-delta D] [--no-canary-auto]\n"
               "ENDPOINT: unix:/path/to.sock or tcp:host:port (port 0 = ephemeral)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  common::Endpoint listen;
  std::size_t entities = 3;
  std::size_t threads = 0;
  std::size_t reassess = 256;
  detect::DetectorKind kind = detect::DetectorKind::kKnn;
  std::filesystem::path store_root;
  std::size_t store_capacity = 4096;
  bool store_mmap = true;
  bool canary = false;
  serve::CanaryPolicy canary_policy;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--socket") {
        listen = common::Endpoint::unix_socket(next());
      } else if (arg == "--listen") {
        listen = common::Endpoint::parse(next());
      } else if (arg == "--entities") {
        entities = tools::parse_unsigned<std::size_t>(next());
      } else if (arg == "--threads") {
        threads = tools::parse_unsigned<std::size_t>(next());
      } else if (arg == "--reassess") {
        reassess = tools::parse_unsigned<std::size_t>(next());
      } else if (arg == "--store-root") {
        store_root = next();
      } else if (arg == "--store-capacity") {
        store_capacity = tools::parse_unsigned<std::size_t>(next());
      } else if (arg == "--no-store-mmap") {
        store_mmap = false;
      } else if (arg == "--canary") {
        canary = true;
      } else if (arg == "--canary-sample-ppm") {
        canary_policy.sample_per_million = tools::parse_unsigned<std::uint32_t>(next());
      } else if (arg == "--canary-min-windows") {
        canary_policy.min_mirrored_windows = tools::parse_unsigned<std::uint64_t>(next());
      } else if (arg == "--canary-max-flag-delta") {
        canary_policy.max_flag_rate_delta = tools::parse_finite(next());
      } else if (arg == "--no-canary-auto") {
        canary_policy.auto_decide = false;
      } else if (arg == "--detector") {
        const std::string name = next();
        if (name == "knn") kind = detect::DetectorKind::kKnn;
        else if (name == "ocsvm") kind = detect::DetectorKind::kOcsvm;
        else if (name == "madgan") kind = detect::DetectorKind::kMadGan;
        else return usage(argv[0]);
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception& error) {
      std::cerr << "goodonesd: " << arg << ": " << error.what() << "\n";
      return 2;
    }
  }
  if (listen.empty()) return usage(argv[0]);

  try {
    const auto domain = std::make_shared<synthtel::SynthtelDomain>(entities);
    core::RiskProfilingFramework framework(domain, mini_config(*domain));
    const serve::ModelRegistry registry;
    serve::RegistryKey key = serve::registry_key(framework, kind);

    // Resume from the newest published generation when one exists (an
    // earlier daemon's refreshes survive restarts); train once otherwise.
    serve::ServingModel model = [&] {
      if (const auto newest = registry.latest(key)) {
        std::cout << "loading cached bundle (generation " << newest->generation << ")\n";
        return registry.load(*newest);
      }
      std::cout << "no cached bundle; training the mini pipeline once...\n";
      return serve::build_serving_model(framework, kind);
    }();

    serve::DaemonConfig config;
    config.listen = listen;
    config.scoring.threads = threads;
    config.adaptive.reassess_every_windows = reassess;
    config.adaptive.canary = canary;
    config.scoring.canary = canary_policy;
    config.store_root = store_root;
    config.store_segment_capacity = store_capacity;
    config.store_mmap = store_mmap;

    serve::Daemon daemon(std::move(model), std::move(config));
    daemon.start();
    // endpoint() is the RESOLVED endpoint (tcp port 0 becomes the real port).
    const std::string where = daemon.endpoint().to_string();
    std::cout << "goodonesd: serving " << daemon.service().model()->entity_names.size()
              << " entities (detector " << detect::to_string(kind) << ", generation "
              << daemon.generation() << ") on " << where << "\n"
              << "score with: goodonesd_client " << where
              << " score <entity> <windows.csv>\n"
              << "stop with:  goodonesd_client " << where << " shutdown\n";
    daemon.wait();
    std::cout << "goodonesd: shut down cleanly (last generation " << daemon.generation()
              << ")\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "goodonesd: " << error.what() << "\n";
    return 1;
  }
}
