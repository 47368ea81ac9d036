// Corrupt/mismatched-artifact behavior of the serving ModelRegistry: a
// truncated file, a wrong magic or version, a shape mismatch, a stale
// config fingerprint, a detector-kind word outside the enum (in a bundle, a
// profiler or a lineage artifact) and byte-level tampering must all fail
// with the typed common::SerializationError — the registry never returns a
// half-loaded model, and never dies on malformed bytes.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"

namespace goodones::serve {
namespace {

using common::SerializationError;

std::filesystem::path test_root() {
  return std::filesystem::temp_directory_path() / "goodones_serve_registry_test";
}

nn::Matrix random_matrix(std::size_t rows, std::size_t cols, common::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& v : m.row(r)) v = rng.uniform(0.0, 1.0);
  }
  return m;
}

predict::BiLstmForecaster toy_forecaster(std::size_t channels, std::uint64_t seed) {
  common::Rng rng(seed);
  predict::ForecasterConfig config;
  config.hidden = 4;
  config.head_hidden = 3;
  config.target_channel = 0;
  config.seed = seed;
  data::MinMaxScaler scaler;
  scaler.fit(random_matrix(20, channels, rng));
  scaler.set_column_range(0, 0.0, 10.0);
  return predict::BiLstmForecaster(config, std::move(scaler));
}

std::unique_ptr<detect::AnomalyDetector> toy_detector(std::size_t dim, std::uint64_t seed) {
  common::Rng rng(seed);
  auto knn = std::make_unique<detect::KnnDetector>();
  std::vector<nn::Matrix> benign;
  std::vector<nn::Matrix> malicious;
  for (int i = 0; i < 12; ++i) benign.push_back(random_matrix(1, dim, rng));
  for (int i = 0; i < 12; ++i) malicious.push_back(random_matrix(1, dim, rng));
  knn->fit(benign, malicious);
  return knn;
}

/// Hand-built miniature bundle: 2 entities, 2-channel telemetry with one
/// context channel (sample feature width 3), untrained toy forecasters.
ServingModel toy_model(std::size_t forecaster_channels = 2) {
  common::Rng rng(99);
  ServingModel model;
  model.domain_key = "toy";
  model.fingerprint = 0xABCDEF01ULL;
  model.spec.name = "toy";
  model.spec.num_channels = 2;
  model.spec.target_channel = 0;
  model.spec.channel_names = {"reading", "event"};
  model.spec.target_min = 0.0;
  model.spec.target_max = 10.0;
  model.spec.thresholds.low = 2.0;
  model.spec.thresholds.high_baseline = 8.0;
  model.spec.thresholds.high_active = 9.0;
  model.spec.severity = risk::SeveritySchedule::paper_default();
  model.spec.context_channels = {1};
  model.spec.context_window_steps = 4;
  model.spec.num_subsets = 1;
  model.detector_kind = detect::DetectorKind::kKnn;
  model.entity_names = {"E_0", "E_1"};
  model.entity_cluster = {Cluster::kLessVulnerable, Cluster::kMoreVulnerable};
  model.detector_scaler.fit(random_matrix(30, 2, rng));
  model.forecasters.push_back(toy_forecaster(forecaster_channels, 1));
  model.forecasters.push_back(toy_forecaster(forecaster_channels, 2));
  model.cluster_detectors[0] = toy_detector(3, 10);
  model.cluster_detectors[1] = toy_detector(3, 11);
  return model;
}

RegistryKey toy_key() {
  RegistryKey key;
  key.domain_key = "toy";
  key.fingerprint = 0xABCDEF01ULL;
  key.detector_kind = detect::DetectorKind::kKnn;
  return key;
}

std::vector<char> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Overwrites the native-endian u32 at `offset` of an artifact.
void overwrite_u32(const std::filesystem::path& path, std::size_t offset,
                   std::uint32_t value) {
  std::vector<char> bytes = read_file(path);
  ASSERT_LE(offset + sizeof(value), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  write_file(path, bytes);
}

/// Offset of the detector-kind word in the profiler and lineage headers:
/// magic, version, length-prefixed domain key, fingerprint. A bundle also
/// writes its generation (8 bytes) before the kind.
std::size_t state_kind_offset(const RegistryKey& key) {
  return 4 + 4 + 4 + key.domain_key.size() + 8;
}

/// A kind word of 256: its low byte reads as kKnn, the toy key's kind.
constexpr std::uint32_t kKindWordAboveEnum = 256;

class ServeRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::filesystem::remove_all(test_root());
    registry_ = std::make_unique<ModelRegistry>(test_root());
  }
  void TearDown() override { std::filesystem::remove_all(test_root()); }

  ModelRegistry& registry() { return *registry_; }

 private:
  std::unique_ptr<ModelRegistry> registry_;
};

TEST_F(ServeRegistryTest, RoundTripPreservesRoutingAndScoring) {
  const ServingModel saved = toy_model();
  registry().save(saved);
  ASSERT_TRUE(registry().contains(toy_key()));
  ASSERT_EQ(registry().list().size(), 1u);

  ServingModel loaded = registry().load(toy_key());
  EXPECT_EQ(loaded.entity_names, saved.entity_names);
  EXPECT_EQ(loaded.spec.context_channels, saved.spec.context_channels);
  EXPECT_EQ(loaded.spec.severity.name(), saved.spec.severity.name());
  EXPECT_EQ(loaded.entity_cluster[1], Cluster::kMoreVulnerable);

  // The reloaded bundle actually serves.
  common::Rng rng(5);
  ScoreRequest request;
  request.entity = "E_1";
  request.windows.push_back({random_matrix(6, 2, rng), data::Regime::kActive});
  const ScoringService service(std::move(loaded), {.threads = 1});
  const ScoreResponse response = service.score(request);
  EXPECT_EQ(response.entity_index, 1u);
  EXPECT_EQ(response.cluster, Cluster::kMoreVulnerable);
  ASSERT_EQ(response.windows.size(), 1u);
}

TEST_F(ServeRegistryTest, MissingArtifactThrowsTypedError) {
  EXPECT_THROW((void)registry().load(toy_key()), SerializationError);
}

TEST_F(ServeRegistryTest, OpenSweepsOrphanedTempFilesAndKeepsLiveArtifacts) {
  const ServingModel saved = toy_model();
  registry().save(saved);
  const auto live = registry().path_for(toy_key());
  const std::vector<char> live_bytes = read_file(live);

  // A crashed writer's leftovers: a half-written temp next to the live
  // artifact, plus one for a key that never published. Backdate them past
  // the sweep's age threshold (only STALE temps may be removed — a fresh
  // temp could be a peer process's save in flight).
  const auto orphan_same_key = std::filesystem::path(live.string() + ".tmp.4242");
  const auto orphan_other =
      registry().root() / "serving_other_beef_knn_g3.bin.tmp.99";
  const auto fresh_peer = std::filesystem::path(live.string() + ".tmp.777");
  write_file(orphan_same_key, {'h', 'a', 'l', 'f'});
  write_file(orphan_other, {'x'});
  write_file(fresh_peer, {'l', 'i', 'v', 'e'});
  const auto stale = std::filesystem::file_time_type::clock::now() -
                     std::chrono::hours(2);
  std::filesystem::last_write_time(orphan_same_key, stale);
  std::filesystem::last_write_time(orphan_other, stale);

  const ModelRegistry reopened(registry().root());
  EXPECT_FALSE(std::filesystem::exists(orphan_same_key));
  EXPECT_FALSE(std::filesystem::exists(orphan_other));
  // The peer's in-flight temp survives the sweep.
  EXPECT_TRUE(std::filesystem::exists(fresh_peer));
  // The live artifact is untouched byte for byte and still loads.
  ASSERT_TRUE(std::filesystem::exists(live));
  EXPECT_EQ(read_file(live), live_bytes);
  const ServingModel reloaded = reopened.load(toy_key());
  EXPECT_EQ(reloaded.entity_names, saved.entity_names);
}

TEST_F(ServeRegistryTest, LatestResolvesNewestGeneration) {
  EXPECT_FALSE(registry().latest(toy_key()).has_value());
  for (const std::uint64_t generation : {0ull, 2ull, 11ull}) {
    ServingModel model = toy_model();
    model.generation = generation;
    registry().save(model);
  }
  // Malformed neighbors must be skipped, not crash the resume path: a
  // generation too large for u64 and a non-numeric suffix.
  const auto base_name = registry().path_for(toy_key()).filename().string();
  const auto prefix = base_name.substr(0, base_name.size() - std::string("0.bin").size());
  write_file(registry().root() / (prefix + "99999999999999999999999.bin"), {'x'});
  write_file(registry().root() / (prefix + "12abc.bin"), {'x'});
  const auto newest = registry().latest(toy_key());
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->generation, 11u);
  EXPECT_EQ(registry().load(*newest).generation, 11u);
  // Loading a generation under the wrong key fails loudly.
  RegistryKey wrong = toy_key();
  wrong.generation = 2;
  EXPECT_EQ(registry().load(wrong).generation, 2u);
  wrong.generation = 7;
  EXPECT_THROW((void)registry().load(wrong), SerializationError);
}

TEST_F(ServeRegistryTest, TruncatedArtifactThrowsTypedError) {
  registry().save(toy_model());
  const auto path = registry().path_for(toy_key());
  const std::vector<char> full = read_file(path);
  ASSERT_GT(full.size(), 64u);

  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{17}, full.size() / 4, full.size() / 2,
        full.size() - 1}) {
    write_file(path, {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(keep)});
    EXPECT_THROW((void)registry().load(toy_key()), SerializationError)
        << "kept " << keep << " of " << full.size() << " bytes";
  }
}

TEST_F(ServeRegistryTest, WrongMagicThrowsTypedError) {
  registry().save(toy_model());
  const auto path = registry().path_for(toy_key());
  std::vector<char> bytes = read_file(path);
  bytes[0] = static_cast<char>(bytes[0] ^ 0x5A);
  write_file(path, bytes);
  EXPECT_THROW((void)registry().load(toy_key()), SerializationError);
}

TEST_F(ServeRegistryTest, WrongVersionThrowsTypedError) {
  registry().save(toy_model());
  const auto path = registry().path_for(toy_key());
  std::vector<char> bytes = read_file(path);
  bytes[4] = static_cast<char>(bytes[4] + 1);  // version field follows the magic
  write_file(path, bytes);
  EXPECT_THROW((void)registry().load(toy_key()), SerializationError);
}

TEST_F(ServeRegistryTest, StaleFingerprintThrowsTypedError) {
  registry().save(toy_model());

  // Simulate an operator copying an old artifact over a retrained config:
  // the file exists at the new key's path but embeds the old fingerprint.
  RegistryKey new_key = toy_key();
  new_key.fingerprint = 0x12345678ULL;
  std::filesystem::copy_file(registry().path_for(toy_key()),
                             registry().path_for(new_key));
  try {
    (void)registry().load(new_key);
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("stale"), std::string::npos);
  }
}

TEST_F(ServeRegistryTest, DetectorKindMismatchThrowsTypedError) {
  registry().save(toy_model());
  RegistryKey wrong_kind = toy_key();
  wrong_kind.detector_kind = detect::DetectorKind::kOcsvm;
  std::filesystem::copy_file(registry().path_for(toy_key()),
                             registry().path_for(wrong_kind));
  EXPECT_THROW((void)registry().load(wrong_kind), SerializationError);
}

TEST_F(ServeRegistryTest, ForecasterShapeMismatchThrowsTypedError) {
  // A bundle whose forecasters disagree with the spec's channel count must
  // be rejected on load — a shape-mismatched model silently serving is the
  // exact failure mode the typed errors exist to prevent.
  registry().save(toy_model(/*forecaster_channels=*/3));
  EXPECT_THROW((void)registry().load(toy_key()), SerializationError);
}

TEST_F(ServeRegistryTest, DetectorWidthMismatchThrowsTypedError) {
  // Internally consistent detectors whose feature width disagrees with the
  // domain schema (sample_feature_count = 2 channels + 1 context = 3) must
  // be rejected — they would otherwise read past every query row.
  ServingModel model = toy_model();
  model.cluster_detectors[0] = toy_detector(5, 20);
  model.cluster_detectors[1] = toy_detector(5, 21);
  registry().save(model);
  EXPECT_THROW((void)registry().load(toy_key()), SerializationError);
}

TEST_F(ServeRegistryTest, BundleKindWordAboveEnumThrowsTypedError) {
  registry().save(toy_model());
  overwrite_u32(registry().path_for(toy_key()), state_kind_offset(toy_key()) + 8,
                kKindWordAboveEnum);
  EXPECT_THROW((void)registry().load(toy_key()), SerializationError);
}

TEST_F(ServeRegistryTest, ProfilerKindWordAboveEnumThrowsTypedError) {
  const risk::OnlineRiskProfiler saved({"E_0", "E_1"}, risk::OnlineProfilerConfig{});
  registry().save_profiler(toy_key(), saved);
  ASSERT_EQ(registry().list().size(), 1u);
  overwrite_u32(registry().list().front(), state_kind_offset(toy_key()), kKindWordAboveEnum);
  risk::OnlineRiskProfiler target({"E_0", "E_1"}, risk::OnlineProfilerConfig{});
  EXPECT_THROW(registry().load_profiler(toy_key(), target), SerializationError);
}

TEST_F(ServeRegistryTest, LineageKindWordAboveEnumThrowsTypedError) {
  registry().append_lineage(toy_key(), LineageEvent{});
  ASSERT_EQ(registry().list().size(), 1u);
  overwrite_u32(registry().list().front(), state_kind_offset(toy_key()), kKindWordAboveEnum);
  EXPECT_THROW((void)registry().load_lineage(toy_key()), SerializationError);
}

TEST_F(ServeRegistryTest, HeaderTamperingNeverYieldsUntypedFailure) {
  registry().save(toy_model());
  const auto path = registry().path_for(toy_key());
  const std::vector<char> clean = read_file(path);
  const std::size_t scan = std::min<std::size_t>(clean.size(), 160);

  // Flip one byte at a time through the structured header region. Every
  // outcome must be either a successful load or the typed error — never an
  // unhandled exception type, never a crash or runaway allocation.
  for (std::size_t offset = 0; offset < scan; ++offset) {
    std::vector<char> tampered = clean;
    tampered[offset] = static_cast<char>(tampered[offset] ^ 0xFF);
    write_file(path, tampered);
    try {
      (void)registry().load(toy_key());
    } catch (const SerializationError&) {
      // expected for most offsets
    } catch (const std::exception& e) {
      FAIL() << "offset " << offset << " raised non-typed " << e.what();
    }
  }
}

}  // namespace
}  // namespace goodones::serve
