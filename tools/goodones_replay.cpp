// goodones_replay — record a synthtel fleet trace into a columnar telemetry
// store, then mmap-replay it through the scoring stack.
//
//   goodones_replay record --store DIR [--entities 3] [--capacity 4096]
//   goodones_replay replay --store DIR [--entities 3] [--seq-len 12]
//                          [--stride 1] [--generation G] [--no-mmap]
//                          [--detector knn|ocsvm|madgan]
//
// record generates the miniature synthtel fleet (the same deterministic
// population goodonesd serves), streams every entity's held-out telemetry
// into a persisted data::ColumnStore under DIR, and seals it to disk — a
// reusable "day of fleet traffic" artifact.
//
// replay reopens the store (sealed segments mmap straight from disk),
// cuts every window of the trace as a zero-copy WindowView and scores it
// through ScoringService::score_views against the bundle generation of
// your choice (--generation; default = the registry's newest, training
// once on a cold cache like goodonesd does). It reports windows/sec with
// window *assembly*, not the LSTM, on the critical path — the backfill
// shape (perfbench's stream_ingest workload measures the same store and
// score_views stages under load) and the Appendix-D adaptive-loop
// correctness workflow ("re-score a recorded day per generation").
//
// Exit status: 2 for a bad command line (a malformed flag value prints
// "goodones_replay: <flag>: <message>"), 1 when record or replay fails.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "data/column_store.hpp"
#include "data/window.hpp"
#include "domains/synthtel/adapter.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"

#include "parse_number.hpp"

using namespace goodones;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " record --store DIR [--entities N] [--capacity TICKS]\n"
      << "       " << argv0
      << " replay --store DIR [--entities N] [--seq-len N] [--stride N] "
         "[--generation G] [--no-mmap] [--detector knn|ocsvm|madgan]\n";
  return 2;
}

/// The deterministic mini synthtel pipeline both verbs share: record needs
/// its telemetry, replay needs the bundle trained on the same population.
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

int run_record(const std::filesystem::path& store_root, std::size_t entities,
               std::size_t capacity) {
  const auto domain = std::make_shared<synthtel::SynthtelDomain>(entities);
  core::RiskProfilingFramework framework(domain, mini_config(*domain));

  data::ColumnStoreConfig config;
  config.root = store_root;
  config.segment_capacity = capacity;
  data::ColumnStore store(config, framework.domain().spec().num_channels);

  std::uint64_t total_ticks = 0;
  for (const auto& entity : framework.entities()) {
    store.append_block(entity.name, entity.test.values, entity.test.regimes);
    total_ticks += entity.test.steps();
  }
  store.flush();

  const data::ColumnStore::Stats stats = store.stats();
  std::cout << "recorded " << total_ticks << " ticks across " << stats.entities
            << " entities into " << store_root.string() << " (" << stats.segments
            << " segments, capacity " << capacity << ")\n";
  return 0;
}

int run_replay(const std::filesystem::path& store_root, std::size_t entities,
               std::size_t seq_len, std::size_t stride, std::uint64_t generation,
               bool use_mmap, detect::DetectorKind kind) {
  const auto domain = std::make_shared<synthtel::SynthtelDomain>(entities);
  core::RiskProfilingFramework framework(domain, mini_config(*domain));

  // Resolve the bundle: a chosen generation, the newest cached one, or a
  // one-off training run on a cold registry (same policy as goodonesd).
  const serve::ModelRegistry registry;
  serve::RegistryKey key = serve::registry_key(framework, kind);
  serve::ServingModel model = [&] {
    if (generation > 0) {
      key.generation = generation;
      return registry.load(key);
    }
    if (const auto newest = registry.latest(key)) return registry.load(*newest);
    std::cout << "no cached bundle; training the mini pipeline once...\n";
    serve::ServingModel built = serve::build_serving_model(framework, kind);
    // Persist like goodonesd does: later replays reuse it, and the
    // generation a report names stays loadable via --generation.
    key.generation = built.generation;
    if (!registry.contains(key)) registry.save(built);
    return built;
  }();
  const std::uint64_t served_generation = model.generation;

  serve::ScoringService service(std::move(model));

  data::ColumnStoreConfig config;
  config.root = store_root;
  config.mmap_reads = use_mmap;
  data::ColumnStore store(config, framework.domain().spec().num_channels);

  // Cut every window of the recorded trace as a zero-copy view and score
  // per entity in one score_views batch — the mmap-backed backfill path.
  std::size_t windows = 0;
  std::size_t flagged = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& entity : store.entity_names()) {
    const std::uint64_t ticks = store.ticks(entity);
    if (ticks < seq_len) continue;
    std::vector<data::WindowView> views;
    for (std::uint64_t end = seq_len - 1; end < ticks; end += stride) {
      views.push_back(store.window_at(entity, end, seq_len));
    }
    const serve::ScoreResponse response =
        service.score_views(entity, std::span<const data::WindowView>(views));
    windows += response.windows.size();
    for (const serve::WindowScore& score : response.windows) {
      if (score.flagged) ++flagged;
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  const data::ColumnStore::Stats stats = store.stats();
  std::cout << "replayed " << windows << " windows (seq_len " << seq_len << ", stride "
            << stride << ") from " << stats.entities << " entities in " << seconds
            << " s: " << (seconds > 0 ? static_cast<double>(windows) / seconds : 0.0)
            << " windows/sec (generation " << served_generation << ", "
            << (use_mmap ? "mmap" : "read-fallback") << ", " << stats.bytes_mapped
            << " bytes resident, " << flagged << " flagged)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];

  std::filesystem::path store_root;
  std::size_t entities = 3;
  std::size_t capacity = 4096;
  std::size_t seq_len = data::kDefaultSeqLen;
  std::size_t stride = 1;
  std::uint64_t generation = 0;
  bool use_mmap = true;
  detect::DetectorKind kind = detect::DetectorKind::kKnn;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--store") {
        store_root = next();
      } else if (arg == "--entities") {
        entities = tools::parse_unsigned<std::size_t>(next());
      } else if (arg == "--capacity") {
        capacity = tools::parse_unsigned<std::size_t>(next());
      } else if (arg == "--seq-len") {
        seq_len = tools::parse_unsigned<std::size_t>(next());
      } else if (arg == "--stride") {
        stride = tools::parse_unsigned<std::size_t>(next());
      } else if (arg == "--generation") {
        generation = tools::parse_unsigned<std::uint64_t>(next());
      } else if (arg == "--no-mmap") {
        use_mmap = false;
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
      std::cerr << "goodones_replay: " << arg << ": " << error.what() << "\n";
      return 2;
    }
  }
  if (store_root.empty() || stride == 0 || seq_len == 0) return usage(argv[0]);

  try {
    if (command == "record") return run_record(store_root, entities, capacity);
    if (command == "replay") {
      return run_replay(store_root, entities, seq_len, stride, generation, use_mmap, kind);
    }
    return usage(argv[0]);
  } catch (const std::exception& error) {
    std::cerr << "goodones_replay: " << error.what() << "\n";
    return 1;
  }
}
