#include "core/cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"

namespace goodones::core {

namespace {

const char* detector_token(detect::DetectorKind kind) {
  switch (kind) {
    case detect::DetectorKind::kKnn: return "knn";
    case detect::DetectorKind::kOcsvm: return "ocsvm";
    case detect::DetectorKind::kMadGan: return "madgan";
  }
  return "?";
}

std::optional<detect::DetectorKind> parse_detector(const std::string& token) {
  if (token == "knn") return detect::DetectorKind::kKnn;
  if (token == "ocsvm") return detect::DetectorKind::kOcsvm;
  if (token == "madgan") return detect::DetectorKind::kMadGan;
  return std::nullopt;
}

const char* strategy_token(Strategy strategy) {
  switch (strategy) {
    case Strategy::kLessVulnerable: return "less";
    case Strategy::kMoreVulnerable: return "more";
    case Strategy::kRandomSamples: return "random";
    case Strategy::kAllVictims: return "all";
  }
  return "?";
}

std::optional<Strategy> parse_strategy(const std::string& token) {
  if (token == "less") return Strategy::kLessVulnerable;
  if (token == "more") return Strategy::kMoreVulnerable;
  if (token == "random") return Strategy::kRandomSamples;
  if (token == "all") return Strategy::kAllVictims;
  return std::nullopt;
}

void append_evaluation_rows(common::CsvTable& table, const StrategyEvaluation& eval,
                            const std::string& scope) {
  const auto row = [&](const std::string& target, const ConfusionMatrix& cm) {
    table.add_row({scope, detector_token(eval.detector), strategy_token(eval.strategy),
                   std::to_string(eval.run), target, std::to_string(cm.tp),
                   std::to_string(cm.fp), std::to_string(cm.fn), std::to_string(cm.tn),
                   std::to_string(eval.train_benign), std::to_string(eval.train_malicious),
                   common::format_double(eval.fit_seconds),
                   common::format_double(eval.score_seconds)});
  };
  row("pooled", eval.pooled);
  for (std::size_t p = 0; p < eval.per_victim.size(); ++p) {
    row("victim_" + std::to_string(p), eval.per_victim[p]);
  }
}

}  // namespace

std::filesystem::path artifacts_dir() {
  const char* env = std::getenv("GOODONES_ARTIFACTS");
  const std::filesystem::path dir = env != nullptr ? env : "goodones_artifacts";
  std::filesystem::create_directories(dir);
  return dir;
}

std::filesystem::path experiments_cache_path(const FrameworkConfig& config,
                                             std::string_view domain_name) {
  std::ostringstream name;
  name << "experiments_" << domain_name << "_" << std::hex << config_fingerprint(config)
       << ".csv";
  return artifacts_dir() / name.str();
}

std::string domain_cache_key(const DomainSpec& spec) {
  return spec.variant.empty() ? spec.name : spec.name + "-" + spec.variant;
}

void save_experiments(const ExperimentResults& results, const FrameworkConfig& config,
                      std::string_view domain_name) {
  common::CsvTable table({"scope", "detector", "strategy", "run", "target", "tp", "fp",
                          "fn", "tn", "train_benign", "train_malicious", "fit_seconds",
                          "score_seconds"});
  for (const auto& entry : results.entries) append_evaluation_rows(table, entry, "entry");
  for (const auto& run : results.random_runs) append_evaluation_rows(table, run, "run");
  table.write(experiments_cache_path(config, domain_name));
}

std::optional<ExperimentResults> load_experiments(const FrameworkConfig& config,
                                                  std::string_view domain_name) {
  const auto path = experiments_cache_path(config, domain_name);
  if (!std::filesystem::exists(path)) return std::nullopt;
  common::CsvTable table;
  try {
    table = common::CsvTable::read(path);
  } catch (const std::exception& e) {
    common::log_warn("ignoring unreadable experiment cache: ", e.what());
    return std::nullopt;
  }

  ExperimentResults results;
  StrategyEvaluation* current = nullptr;
  try {
  for (const auto& row : table.rows()) {
    if (row.size() != table.num_cols()) return std::nullopt;
    const std::string& scope = row[0];
    const auto detector = parse_detector(row[1]);
    const auto strategy = parse_strategy(row[2]);
    if (!detector || !strategy) return std::nullopt;
    const std::string& target = row[4];

    ConfusionMatrix cm;
    cm.tp = std::stoull(row[5]);
    cm.fp = std::stoull(row[6]);
    cm.fn = std::stoull(row[7]);
    cm.tn = std::stoull(row[8]);

    if (target == "pooled") {
      auto& bucket = scope == "entry" ? results.entries : results.random_runs;
      bucket.emplace_back();
      current = &bucket.back();
      current->detector = *detector;
      current->strategy = *strategy;
      current->run = static_cast<std::size_t>(std::stoull(row[3]));
      current->pooled = cm;
      current->train_benign = std::stoull(row[9]);
      current->train_malicious = std::stoull(row[10]);
      current->fit_seconds = std::stod(row[11]);
      current->score_seconds = std::stod(row[12]);
    } else {
      // The writer emits victim_0 ... victim_{n-1} right after their pooled
      // row, so only the next index in that sequence is accepted.
      if (current == nullptr ||
          target != "victim_" + std::to_string(current->per_victim.size())) {
        return std::nullopt;
      }
      current->per_victim.push_back(cm);
    }
  }
  } catch (const std::exception& e) {
    common::log_warn("ignoring corrupt experiment cache: ", e.what());
    return std::nullopt;
  }
  if (results.entries.empty()) return std::nullopt;
  return results;
}

ExperimentResults experiments_with_cache(RiskProfilingFramework& framework,
                                         const std::vector<detect::DetectorKind>& kinds) {
  const std::string domain_key = domain_cache_key(framework.domain().spec());
  const std::string_view domain_name = domain_key;
  if (auto cached = load_experiments(framework.config(), domain_name)) {
    // Only reuse the cache when it holds every requested detector x strategy
    // entry: a file cut short at a row boundary still parses.
    bool covers_all = true;
    for (const auto kind : kinds) {
      for (const Strategy strategy : all_strategies()) {
        covers_all = covers_all &&
                     std::any_of(cached->entries.begin(), cached->entries.end(),
                                 [&](const StrategyEvaluation& entry) {
                                   return entry.detector == kind && entry.strategy == strategy;
                                 });
      }
    }
    if (covers_all) {
      common::log_info("loaded detector experiments from cache");
      return *cached;
    }
  }
  ExperimentResults results = framework.run_detector_experiments(kinds);
  save_experiments(results, framework.config(), domain_name);
  return results;
}

}  // namespace goodones::core
