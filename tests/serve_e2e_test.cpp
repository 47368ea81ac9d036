// End-to-end golden test for the serving path: train the synthtel mini
// pipeline, build the serving bundle, persist it through the ModelRegistry,
// reload into a fresh ScoringService, and pin that served verdicts and risk
// scores are IDENTICAL (bitwise) to in-memory scoring — for clean windows
// and for adversarially manipulated ones. This is the contract that makes
// "train once, score forever" safe.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/framework.hpp"
#include "core/metrics.hpp"
#include "data/window.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"

#include "serve_fixture.hpp"

namespace goodones::serve {
namespace {

core::RiskProfilingFramework& framework() {
  return fixture::mini_framework</*population_seed=*/7, /*seed=*/4242>();
}

/// Scratch registry root, wiped between test runs.
std::filesystem::path registry_root() {
  const auto root = std::filesystem::temp_directory_path() / "goodones_serve_e2e";
  return root;
}

/// Clean + attacked score requests for every entity: a few benign test
/// windows and the successful adversarial windows of the evaluation
/// campaign (evasion pressure lands at test time).
std::vector<ScoreRequest> build_requests(core::RiskProfilingFramework& fw) {
  std::vector<ScoreRequest> requests;
  const auto& entities = fw.entities();
  data::WindowConfig window_config = fw.config().window;
  window_config.step = 25;
  for (std::size_t e = 0; e < entities.size(); ++e) {
    ScoreRequest clean;
    clean.entity = entities[e].name;
    const auto windows = data::make_windows(entities[e].test, window_config);
    for (std::size_t i = 0; i < windows.size() && i < 6; ++i) {
      clean.windows.push_back({windows[i].features, windows[i].regime});
    }
    requests.push_back(std::move(clean));

    ScoreRequest attacked;
    attacked.entity = entities[e].name;
    for (const auto& outcome : fw.test_outcomes(e)) {
      if (!outcome.attack.success) continue;
      attacked.windows.push_back(
          {outcome.attack.adversarial_features, outcome.benign.regime});
      if (attacked.windows.size() >= 4) break;
    }
    if (!attacked.windows.empty()) requests.push_back(std::move(attacked));
  }
  return requests;
}

void expect_identical_responses(const std::vector<ScoreResponse>& in_memory,
                                const std::vector<ScoreResponse>& served) {
  ASSERT_EQ(in_memory.size(), served.size());
  for (std::size_t r = 0; r < in_memory.size(); ++r) {
    SCOPED_TRACE("r=" + std::to_string(r));
    fixture::expect_identical_response(in_memory[r], served[r]);
  }
}

TEST(ServeEndToEnd, PersistedBundleServesIdenticalVerdicts) {
  std::filesystem::remove_all(registry_root());
  auto& fw = framework();

  // Train + bundle in memory.
  ServingModel model = build_serving_model(fw, detect::DetectorKind::kKnn);
  ASSERT_EQ(model.entity_names.size(), fw.entities().size());
  ASSERT_EQ(model.forecasters.size(), fw.entities().size());

  // Persist and reload through the registry.
  const ModelRegistry registry(registry_root());
  const RegistryKey key = registry_key(fw, detect::DetectorKind::kKnn);
  EXPECT_FALSE(registry.contains(key));
  registry.save(model);
  ASSERT_TRUE(registry.contains(key));
  ServingModel reloaded = registry.load(key);
  EXPECT_EQ(reloaded.domain_key, model.domain_key);
  EXPECT_EQ(reloaded.fingerprint, model.fingerprint);
  EXPECT_EQ(reloaded.entity_names, model.entity_names);
  EXPECT_EQ(reloaded.entity_cluster.size(), model.entity_cluster.size());

  const std::vector<ScoreRequest> requests = build_requests(fw);
  ASSERT_GE(requests.size(), fw.entities().size());  // at least the clean ones

  const ScoringService in_memory(std::move(model), {.threads = 2});
  const ScoringService served(std::move(reloaded), {.threads = 2});

  const auto in_memory_responses =
      in_memory.score_batch(std::span<const ScoreRequest>(requests));
  const auto served_responses =
      served.score_batch(std::span<const ScoreRequest>(requests));
  expect_identical_responses(in_memory_responses, served_responses);

  // The golden run must actually exercise the detector on attack traffic:
  // at least one adversarial request exists and at least one window of the
  // whole run carries nonzero anomaly signal.
  std::size_t scored_windows = 0;
  bool any_signal = false;
  for (const auto& response : served_responses) {
    for (const auto& window : response.windows) {
      ++scored_windows;
      any_signal = any_signal || window.anomaly_score != 0.0 || window.flagged;
    }
  }
  EXPECT_GT(scored_windows, fw.entities().size() * 3);
  EXPECT_TRUE(any_signal);

  std::filesystem::remove_all(registry_root());
}

TEST(ServeEndToEnd, SingleRequestMatchesBatchPath) {
  auto& fw = framework();
  ServingModel model = build_serving_model(fw, detect::DetectorKind::kKnn);
  const ScoringService service(std::move(model), {.threads = 2});

  const std::vector<ScoreRequest> requests = build_requests(fw);
  const auto batched = service.score_batch(std::span<const ScoreRequest>(requests));
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const ScoreResponse single = service.score(requests[r]);
    expect_identical_responses({batched[r]}, {single});
  }
}

TEST(ServeEndToEnd, ThroughputCountersAdvance) {
  auto& fw = framework();
  ServingModel model = build_serving_model(fw, detect::DetectorKind::kKnn);
  const ScoringService service(std::move(model), {.threads = 2});

  core::counters().reset();
  const std::vector<ScoreRequest> requests = build_requests(fw);
  std::size_t total_windows = 0;
  for (const auto& request : requests) total_windows += request.windows.size();
  (void)service.score_batch(std::span<const ScoreRequest>(requests));

  EXPECT_EQ(core::counters().value("serve.requests"), requests.size());
  EXPECT_EQ(core::counters().value("serve.windows"), total_windows);
  EXPECT_GE(core::counters().value("serve.entity_batches"), 1u);
}

TEST(ServeEndToEnd, UnknownEntityFailsLoudly) {
  auto& fw = framework();
  ServingModel model = build_serving_model(fw, detect::DetectorKind::kKnn);
  const ScoringService service(std::move(model));

  ScoreRequest bogus;
  bogus.entity = "NO_SUCH_NODE";
  EXPECT_THROW((void)service.score(bogus), common::PreconditionError);
}

}  // namespace
}  // namespace goodones::serve
