#include "serve/model_registry.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/cache.hpp"
#include "core/sample_features.hpp"
#include "nn/serialize.hpp"

namespace goodones::serve {

namespace {

constexpr std::uint32_t kBundleMagic = 0x474F534D;  // "GOSM"
/// v2: bundle carries its generation (the adaptive loop's publication unit).
constexpr std::uint32_t kBundleVersion = 2;
/// Trailing sentinel: catches artifacts truncated after the last section.
constexpr std::uint32_t kBundleEnd = 0x454E4442;  // "ENDB"

constexpr std::uint32_t kProfilerMagic = 0x474F5250;  // "GORP"
constexpr std::uint32_t kProfilerVersion = 1;

constexpr std::uint32_t kLineageMagic = 0x474F4C4E;  // "GOLN"
constexpr std::uint32_t kLineageVersion = 1;

using common::SerializationError;

/// Reads a u32 element count and sanity-bounds it before any reserve():
/// a tampered count must raise the typed error, not a huge allocation.
std::uint32_t read_count(std::istream& in, const char* what) {
  const std::uint32_t count = nn::read_u32(in, what);
  if (count > (1u << 20)) {
    throw SerializationError(std::string("implausible count for ") + what +
                             " (corrupt artifact?)");
  }
  return count;
}

/// Reads a u32 detector-kind word. DetectorKind is one byte wide, so a bare
/// cast would keep only the low byte and load a kind word of 256 as kKnn.
detect::DetectorKind read_kind(std::istream& in, const char* what) {
  const std::uint32_t kind = nn::read_u32(in, what);
  if (kind > static_cast<std::uint32_t>(detect::DetectorKind::kMadGan)) {
    throw SerializationError(std::string(what) + " out of range: " + std::to_string(kind));
  }
  return static_cast<detect::DetectorKind>(kind);
}

/// Header of the generation-agnostic state artifacts (profiler state,
/// promotion lineage): magic, version, then the key's domain, fingerprint
/// and detector kind.
void write_state_header(std::ostream& out, std::uint32_t magic, std::uint32_t version,
                        const RegistryKey& key) {
  nn::write_u32(out, magic);
  nn::write_u32(out, version);
  nn::write_string(out, key.domain_key);
  nn::write_u64(out, key.fingerprint);
  nn::write_u32(out, static_cast<std::uint32_t>(key.detector_kind));
}

/// Checks a header written by write_state_header against `key`; `artifact`
/// names the artifact ("profiler", "lineage") in every error.
void check_state_header(std::istream& in, std::uint32_t magic, std::uint32_t version,
                        const RegistryKey& key, const std::string& artifact,
                        const std::filesystem::path& path) {
  const std::string what = artifact + " artifact";
  nn::expect_u32(in, magic, (what + " magic").c_str());
  nn::expect_u32(in, version, (what + " version").c_str());
  if (nn::read_string(in, (what + " domain key").c_str()) != key.domain_key) {
    throw SerializationError(what + " domain mismatch: " + path.string());
  }
  if (nn::read_u64(in, (what + " fingerprint").c_str()) != key.fingerprint) {
    throw SerializationError("stale " + what + ": fingerprint mismatch for " +
                             path.string());
  }
  if (read_kind(in, (what + " kind").c_str()) != key.detector_kind) {
    throw SerializationError(what + " detector kind mismatch: " + path.string());
  }
}

void write_spec(std::ostream& out, const core::DomainSpec& spec) {
  nn::write_string(out, spec.name);
  nn::write_string(out, spec.variant);
  nn::write_u64(out, spec.num_channels);
  nn::write_u64(out, spec.target_channel);
  nn::write_u32(out, static_cast<std::uint32_t>(spec.channel_names.size()));
  for (const auto& name : spec.channel_names) nn::write_string(out, name);
  nn::write_f64(out, spec.target_min);
  nn::write_f64(out, spec.target_max);
  nn::write_f64(out, spec.thresholds.low);
  nn::write_f64(out, spec.thresholds.high_baseline);
  nn::write_f64(out, spec.thresholds.high_active);
  spec.severity.save(out);
  nn::write_f64(out, spec.attack_box_min_baseline);
  nn::write_f64(out, spec.attack_box_min_active);
  nn::write_f64(out, spec.attack_box_max);
  nn::write_f64(out, spec.attack_harm_threshold);
  nn::write_u32(out, static_cast<std::uint32_t>(spec.context_channels.size()));
  for (const std::size_t c : spec.context_channels) nn::write_u64(out, c);
  nn::write_u64(out, spec.context_window_steps);
  nn::write_u64(out, spec.num_subsets);
}

core::DomainSpec read_spec(std::istream& in) {
  core::DomainSpec spec;
  spec.name = nn::read_string(in, "spec name");
  spec.variant = nn::read_string(in, "spec variant");
  spec.num_channels = nn::read_u64(in, "spec num channels");
  spec.target_channel = nn::read_u64(in, "spec target channel");
  const std::uint32_t n_names = read_count(in, "spec channel-name count");
  spec.channel_names.clear();
  spec.channel_names.reserve(n_names);
  for (std::uint32_t i = 0; i < n_names; ++i) {
    spec.channel_names.push_back(nn::read_string(in, "spec channel name"));
  }
  spec.target_min = nn::read_f64(in, "spec target min");
  spec.target_max = nn::read_f64(in, "spec target max");
  spec.thresholds.low = nn::read_f64(in, "spec threshold low");
  spec.thresholds.high_baseline = nn::read_f64(in, "spec threshold high baseline");
  spec.thresholds.high_active = nn::read_f64(in, "spec threshold high active");
  spec.severity.load(in);
  spec.attack_box_min_baseline = nn::read_f64(in, "spec box min baseline");
  spec.attack_box_min_active = nn::read_f64(in, "spec box min active");
  spec.attack_box_max = nn::read_f64(in, "spec box max");
  spec.attack_harm_threshold = nn::read_f64(in, "spec harm threshold");
  const std::uint32_t n_context = read_count(in, "spec context-channel count");
  spec.context_channels.clear();
  spec.context_channels.reserve(n_context);
  for (std::uint32_t i = 0; i < n_context; ++i) {
    spec.context_channels.push_back(nn::read_u64(in, "spec context channel"));
  }
  spec.context_window_steps = nn::read_u64(in, "spec context window steps");
  spec.num_subsets = nn::read_u64(in, "spec num subsets");
  if (spec.num_channels == 0 || spec.target_channel >= spec.num_channels) {
    throw SerializationError("serving bundle carries an invalid domain spec");
  }
  for (const std::size_t c : spec.context_channels) {
    if (c >= spec.num_channels) {
      throw SerializationError("serving bundle context channel out of range");
    }
  }
  return spec;
}

const char* kind_token(detect::DetectorKind kind) noexcept {
  switch (kind) {
    case detect::DetectorKind::kKnn: return "knn";
    case detect::DetectorKind::kOcsvm: return "ocsvm";
    case detect::DetectorKind::kMadGan: return "madgan";
  }
  return "?";
}

/// Serializes the complete bundle (no framing decisions; save() owns the
/// file, clone_serving_model() a stringstream).
void write_bundle(std::ostream& out, const ServingModel& model) {
  nn::write_u32(out, kBundleMagic);
  nn::write_u32(out, kBundleVersion);
  nn::write_string(out, model.domain_key);
  nn::write_u64(out, model.fingerprint);
  nn::write_u64(out, model.generation);
  nn::write_u32(out, static_cast<std::uint32_t>(model.detector_kind));
  write_spec(out, model.spec);

  nn::write_u32(out, static_cast<std::uint32_t>(model.entity_names.size()));
  for (const auto& name : model.entity_names) nn::write_string(out, name);
  std::vector<std::uint8_t> cluster_bytes;
  cluster_bytes.reserve(model.entity_cluster.size());
  for (const Cluster c : model.entity_cluster) {
    cluster_bytes.push_back(static_cast<std::uint8_t>(c));
  }
  nn::write_u8_vector(out, cluster_bytes);
  model.detector_scaler.save(out);

  nn::write_u32(out, static_cast<std::uint32_t>(model.forecasters.size()));
  for (const auto& forecaster : model.forecasters) forecaster.save_artifact(out);

  for (const auto& detector : model.cluster_detectors) {
    GO_EXPECTS(detector != nullptr);
    detector->save(out);
  }
  nn::write_u32(out, kBundleEnd);
}

/// Deserializes and cross-validates a bundle written by write_bundle.
ServingModel read_bundle(std::istream& in) {
  nn::expect_u32(in, kBundleMagic, "serving bundle magic");
  nn::expect_u32(in, kBundleVersion, "serving bundle version");

  ServingModel model;
  model.domain_key = nn::read_string(in, "bundle domain key");
  model.fingerprint = nn::read_u64(in, "bundle fingerprint");
  model.generation = nn::read_u64(in, "bundle generation");
  model.detector_kind = read_kind(in, "bundle detector kind");
  model.spec = read_spec(in);

  const std::uint32_t n_entities = read_count(in, "bundle entity count");
  model.entity_names.reserve(n_entities);
  for (std::uint32_t i = 0; i < n_entities; ++i) {
    model.entity_names.push_back(nn::read_string(in, "bundle entity name"));
  }
  const std::vector<std::uint8_t> cluster_bytes =
      nn::read_u8_vector(in, "bundle cluster assignment");
  if (cluster_bytes.size() != n_entities) {
    throw SerializationError("serving bundle cluster table size mismatch");
  }
  model.entity_cluster.reserve(n_entities);
  for (const std::uint8_t b : cluster_bytes) {
    if (b > 1) throw SerializationError("serving bundle carries an invalid cluster id");
    model.entity_cluster.push_back(static_cast<Cluster>(b));
  }
  model.detector_scaler.load(in);

  const std::uint32_t n_forecasters = read_count(in, "bundle forecaster count");
  if (n_forecasters != n_entities) {
    throw SerializationError("serving bundle forecaster/entity count mismatch");
  }
  model.forecasters.reserve(n_forecasters);
  for (std::uint32_t i = 0; i < n_forecasters; ++i) {
    model.forecasters.push_back(predict::BiLstmForecaster::load_artifact(in));
    if (model.forecasters.back().num_channels() != model.spec.num_channels) {
      throw SerializationError("serving bundle forecaster channel-count mismatch");
    }
  }

  // Cross-validate the scaler against the schema it will transform.
  if (model.detector_scaler.fitted() &&
      model.detector_scaler.num_features() != model.spec.num_channels) {
    throw SerializationError("serving bundle detector-scaler width mismatch");
  }

  for (auto& detector : model.cluster_detectors) {
    detector = detect::make_detector(model.detector_kind, detect::DetectorSuiteConfig{});
    detector->load(in);
    // A detector that is internally consistent but disagrees with the
    // domain schema must not serve: sample-level detectors consume
    // sample_feature_count-wide rows, window-level ones num_channels
    // columns. (0 = width unknown; nothing to check.)
    const std::size_t width = detector->input_width();
    const std::size_t expected =
        detector->granularity() == detect::InputGranularity::kSample
            ? core::sample_feature_count(model.spec)
            : model.spec.num_channels;
    if (width != 0 && width != expected) {
      throw SerializationError("serving bundle detector feature-width mismatch: artifact " +
                               std::to_string(width) + ", domain schema expects " +
                               std::to_string(expected));
    }
  }
  nn::expect_u32(in, kBundleEnd, "serving bundle end marker");
  return model;
}

/// Atomic publish: write to a per-writer temp file, rename into place.
template <typename WriteBody>
void atomic_write(const std::filesystem::path& path, WriteBody&& body) {
  // Unique temp name per writer: concurrent saves of the same key (two
  // fleet nodes racing "train once") must not interleave into one file.
  const std::filesystem::path tmp =
      path.string() + ".tmp." + std::to_string(::getpid());
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw SerializationError("cannot open registry artifact for writing: " + tmp.string());
    }
    body(out);
    if (!out) throw SerializationError("registry artifact write failed: " + tmp.string());
    out.close();
    std::filesystem::rename(tmp, path);  // atomic publish
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);  // never leave stale temp files
    throw;
  }
}

}  // namespace

const char* to_string(Cluster cluster) noexcept {
  return cluster == Cluster::kLessVulnerable ? "less-vulnerable" : "more-vulnerable";
}

std::size_t ServingModel::entity_index(std::string_view name) const {
  for (std::size_t i = 0; i < entity_names.size(); ++i) {
    if (entity_names[i] == name) return i;
  }
  throw common::PreconditionError("unknown entity in score request: " + std::string(name));
}

const detect::AnomalyDetector& ServingModel::detector_for(std::size_t entity) const {
  GO_EXPECTS(entity < entity_cluster.size());
  const auto& detector =
      cluster_detectors[static_cast<std::size_t>(entity_cluster[entity])];
  GO_EXPECTS(detector != nullptr);
  return *detector;
}

RegistryKey registry_key(const core::RiskProfilingFramework& framework,
                         detect::DetectorKind kind) {
  RegistryKey key;
  key.domain_key = core::domain_cache_key(framework.domain().spec());
  key.fingerprint = core::config_fingerprint(framework.config());
  key.detector_kind = kind;
  return key;
}

RegistryKey registry_key(const ServingModel& model) {
  RegistryKey key;
  key.domain_key = model.domain_key;
  key.fingerprint = model.fingerprint;
  key.detector_kind = model.detector_kind;
  key.generation = model.generation;
  return key;
}

ServingModel build_serving_model(core::RiskProfilingFramework& framework,
                                 detect::DetectorKind kind) {
  return build_serving_model(framework, kind, framework.profiling().clusters,
                             /*generation=*/0);
}

ServingModel build_serving_model(core::RiskProfilingFramework& framework,
                                 detect::DetectorKind kind,
                                 const core::VulnerabilityClusters& partition,
                                 std::uint64_t generation) {
  const RegistryKey key = registry_key(framework, kind);
  const auto& entities = framework.entities();
  const core::VulnerabilityClusters clusters = framework.rebuild_routing(partition);

  ServingModel model;
  model.domain_key = key.domain_key;
  model.fingerprint = key.fingerprint;
  model.generation = generation;
  model.spec = framework.domain().spec();
  model.detector_kind = kind;
  model.detector_scaler = framework.detector_scaler();

  model.entity_names.reserve(entities.size());
  for (const auto& entity : entities) model.entity_names.push_back(entity.name);

  model.entity_cluster.assign(entities.size(), Cluster::kLessVulnerable);
  for (const std::size_t p : clusters.more_vulnerable) {
    model.entity_cluster[p] = Cluster::kMoreVulnerable;
  }

  model.forecasters.reserve(entities.size());
  for (std::size_t i = 0; i < entities.size(); ++i) {
    model.forecasters.push_back(framework.models().personalized(i));
  }

  // One detector per cluster, each trained on its own cluster's victims
  // (the paper's step 5: the less-vulnerable detector is the proposed
  // defense; the more-vulnerable one is kept for routing completeness).
  // An empty cluster (the online profiler may declare everyone
  // less-vulnerable) falls back to the full population so its detector
  // slot still serves.
  common::log_info("building serving bundle (", kind_token(kind), ", ",
                   entities.size(), " entities, generation ", generation, ")");
  const auto victims_or_all = [&](const std::vector<std::size_t>& victims) {
    if (!victims.empty()) return victims;
    std::vector<std::size_t> all(entities.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    return all;
  };
  model.cluster_detectors[0] = std::move(
      framework.train_detector(kind, victims_or_all(clusters.less_vulnerable)).detector);
  model.cluster_detectors[1] = std::move(
      framework.train_detector(kind, victims_or_all(clusters.more_vulnerable)).detector);
  return model;
}

ServingModel clone_serving_model(const ServingModel& model) {
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  write_bundle(buffer, model);
  buffer.seekg(0);
  return read_bundle(buffer);
}

ServingModel slice_serving_model(const ServingModel& model,
                                 const std::vector<std::string>& entities) {
  GO_EXPECTS(!entities.empty());
  // Validate the member set up front: entity_index throws on unknowns, the
  // keep-count comparison catches duplicates (two requests for one entity
  // would keep it once and desync the counts).
  std::vector<bool> keep(model.entity_names.size(), false);
  for (const auto& name : entities) {
    const std::size_t index = model.entity_index(name);
    if (keep[index]) {
      throw common::PreconditionError("slice_serving_model: duplicate entity: " + name);
    }
    keep[index] = true;
  }

  ServingModel slice = clone_serving_model(model);
  // Filter the per-entity columns in TRAINING order (stable regardless of
  // the order the caller listed the members in).
  std::size_t write = 0;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (!keep[i]) continue;
    if (write != i) {
      slice.entity_names[write] = std::move(slice.entity_names[i]);
      slice.entity_cluster[write] = slice.entity_cluster[i];
      slice.forecasters[write] = std::move(slice.forecasters[i]);
    }
    ++write;
  }
  slice.entity_names.resize(write);
  slice.entity_cluster.resize(write);
  // erase, not resize: BiLstmForecaster has no default constructor.
  slice.forecasters.erase(
      slice.forecasters.begin() + static_cast<std::ptrdiff_t>(write),
      slice.forecasters.end());

  // A deterministic member-set tag (insertion-order independent: hashes of
  // the kept names XOR-combined) keeps the slice's registry identity apart
  // from the full bundle's and from differently-sliced siblings.
  std::uint64_t tag = 0x736c696365ull;  // "slice"
  for (const auto& name : slice.entity_names) tag ^= common::fnv1a64(name);
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "#slice-%016llx",
                static_cast<unsigned long long>(tag));
  slice.domain_key += suffix;
  return slice;
}

ModelRegistry::ModelRegistry() : root_(core::artifacts_dir() / "models") {
  std::filesystem::create_directories(root_);
  sweep_orphaned_tmp_files();
}

ModelRegistry::ModelRegistry(std::filesystem::path root) : root_(std::move(root)) {
  std::filesystem::create_directories(root_);
  sweep_orphaned_tmp_files();
}

void ModelRegistry::sweep_orphaned_tmp_files() const {
  // A writer that crashed between temp-write and rename leaves
  // "<artifact>.bin.tmp.<pid>" behind; those bytes were never published.
  // Only stale temps are removed: a peer process may be mid-save of a
  // fresh temp right now (two fleet nodes racing "train once" share this
  // root), and deleting its live temp would fail an atomic save that was
  // about to succeed. Live artifacts end in ".bin" and are never matched.
  constexpr auto kOrphanAge = std::chrono::minutes(10);
  const auto now = std::filesystem::file_time_type::clock::now();
  for (const auto& entry : std::filesystem::directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.find(".bin.tmp.") == std::string::npos) continue;
    std::error_code ec;
    const auto written = std::filesystem::last_write_time(entry.path(), ec);
    if (ec || now - written < kOrphanAge) continue;
    std::filesystem::remove(entry.path(), ec);
    common::log_warn("swept orphaned registry temp file: ", entry.path().string());
  }
}

std::filesystem::path ModelRegistry::path_for(const RegistryKey& key) const {
  std::ostringstream name;
  name << "serving_" << key.domain_key << "_" << std::hex << key.fingerprint << "_"
       << kind_token(key.detector_kind) << "_g" << std::dec << key.generation << ".bin";
  return root_ / name.str();
}

std::filesystem::path ModelRegistry::profiler_path_for(const RegistryKey& key) const {
  std::ostringstream name;
  name << "profiler_" << key.domain_key << "_" << std::hex << key.fingerprint << "_"
       << kind_token(key.detector_kind) << ".bin";
  return root_ / name.str();
}

bool ModelRegistry::contains(const RegistryKey& key) const {
  return std::filesystem::exists(path_for(key));
}

std::optional<RegistryKey> ModelRegistry::latest(const RegistryKey& key) const {
  // Generations share the key's filename up to "_g<generation>.bin"; scan
  // for the highest published one.
  RegistryKey base = key;
  base.generation = 0;
  const std::string stem = path_for(base).filename().string();
  const std::string prefix = stem.substr(0, stem.size() - std::string("0.bin").size());

  std::optional<RegistryKey> newest;
  if (!std::filesystem::exists(root_)) return newest;
  for (const auto& entry : std::filesystem::directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + 4 || name.compare(0, prefix.size(), prefix) != 0 ||
        name.substr(name.size() - 4) != ".bin") {
      continue;
    }
    const std::string digits = name.substr(prefix.size(), name.size() - prefix.size() - 4);
    // A generation that cannot fit u64 is not one of ours — skip it like
    // every other malformed filename instead of letting stoull throw.
    if (digits.empty() || digits.size() > 19 ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    RegistryKey candidate = base;
    candidate.generation = std::stoull(digits);
    if (!newest || candidate.generation > newest->generation) newest = candidate;
  }
  return newest;
}

void ModelRegistry::save(const ServingModel& model) const {
  const std::filesystem::path path = path_for(registry_key(model));
  atomic_write(path, [&](std::ostream& out) { write_bundle(out, model); });
  common::log_info("persisted serving bundle: ", path.string());
}

ServingModel ModelRegistry::load(const RegistryKey& key) const {
  const std::filesystem::path path = path_for(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SerializationError("no serving bundle for key (domain " + key.domain_key +
                             "): " + path.string());
  }
  ServingModel model = read_bundle(in);
  // Stale-artifact guard: a bundle that does not match the requested
  // training config must never be served (a file copied or renamed across
  // config changes would otherwise silently score with old semantics).
  if (model.domain_key != key.domain_key) {
    throw SerializationError("serving bundle domain mismatch: artifact '" +
                             model.domain_key + "', requested '" + key.domain_key + "'");
  }
  if (model.fingerprint != key.fingerprint) {
    throw SerializationError("stale serving bundle: config fingerprint mismatch for " +
                             path.string());
  }
  if (model.detector_kind != key.detector_kind) {
    throw SerializationError("serving bundle detector kind mismatch: " + path.string());
  }
  if (model.generation != key.generation) {
    throw SerializationError("serving bundle generation mismatch: " + path.string());
  }
  return model;
}

void ModelRegistry::save_profiler(const RegistryKey& key,
                                  const risk::OnlineRiskProfiler& profiler) const {
  const std::filesystem::path path = profiler_path_for(key);
  atomic_write(path, [&](std::ostream& out) {
    write_state_header(out, kProfilerMagic, kProfilerVersion, key);
    profiler.save(out);
  });
}

bool ModelRegistry::contains_profiler(const RegistryKey& key) const {
  return std::filesystem::exists(profiler_path_for(key));
}

void ModelRegistry::load_profiler(const RegistryKey& key,
                                  risk::OnlineRiskProfiler& profiler) const {
  const std::filesystem::path path = profiler_path_for(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SerializationError("no profiler state for key (domain " + key.domain_key +
                             "): " + path.string());
  }
  check_state_header(in, kProfilerMagic, kProfilerVersion, key, "profiler", path);
  profiler.load(in);
}

std::filesystem::path ModelRegistry::lineage_path_for(const RegistryKey& key) const {
  std::ostringstream name;
  name << "lineage_" << key.domain_key << "_" << std::hex << key.fingerprint << "_"
       << kind_token(key.detector_kind) << ".bin";
  return root_ / name.str();
}

void ModelRegistry::append_lineage(const RegistryKey& key,
                                   const LineageEvent& event) const {
  // Events are rare (one per install/promote/rollback), so append is a
  // read-extend-rewrite through the same atomic_write every other artifact
  // uses — readers never observe a half-written lineage file.
  std::vector<LineageEvent> events;
  if (contains_lineage(key)) events = load_lineage(key);
  events.push_back(event);
  atomic_write(lineage_path_for(key), [&](std::ostream& out) {
    write_state_header(out, kLineageMagic, kLineageVersion, key);
    nn::write_u64(out, events.size());
    for (const LineageEvent& e : events) {
      nn::write_u64(out, e.generation);
      nn::write_u64(out, e.primary_generation);
      nn::write_u32(out, static_cast<std::uint32_t>(e.action));
      nn::write_u64(out, e.mirrored_windows);
    }
  });
}

bool ModelRegistry::contains_lineage(const RegistryKey& key) const {
  return std::filesystem::exists(lineage_path_for(key));
}

std::vector<LineageEvent> ModelRegistry::load_lineage(const RegistryKey& key) const {
  const std::filesystem::path path = lineage_path_for(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SerializationError("no lineage for key (domain " + key.domain_key +
                             "): " + path.string());
  }
  check_state_header(in, kLineageMagic, kLineageVersion, key, "lineage", path);
  const std::uint64_t count = nn::read_u64(in, "lineage event count");
  // A count beyond any plausible promotion history means a corrupt file,
  // not a big one — refuse before allocating.
  if (count > (1ull << 20)) {
    throw SerializationError("lineage event count out of range: " + std::to_string(count));
  }
  std::vector<LineageEvent> events(count);
  for (LineageEvent& e : events) {
    e.generation = nn::read_u64(in, "lineage event generation");
    e.primary_generation = nn::read_u64(in, "lineage event primary generation");
    const std::uint32_t action = nn::read_u32(in, "lineage event action");
    if (action > static_cast<std::uint32_t>(LineageAction::kRolledBack)) {
      throw SerializationError("lineage event action out of range: " +
                               std::to_string(action));
    }
    e.action = static_cast<LineageAction>(action);
    e.mirrored_windows = nn::read_u64(in, "lineage event mirrored windows");
  }
  return events;
}

std::vector<std::filesystem::path> ModelRegistry::list() const {
  std::vector<std::filesystem::path> out;
  if (!std::filesystem::exists(root_)) return out;
  for (const auto& entry : std::filesystem::directory_iterator(root_)) {
    if (entry.is_regular_file() && entry.path().extension() == ".bin") {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace goodones::serve
