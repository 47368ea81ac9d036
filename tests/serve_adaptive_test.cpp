// End-to-end test for the adaptive serving loop: an AdaptiveController taps
// the ScoringService's feedback hook, profiles live risk online, and when
// the partition moves it publishes a new bundle generation via lock-free
// hot-swap. The hard guarantees pinned here:
//
//   * Atomic generations under concurrency: every ScoreResponse is
//     bitwise-reproducible against exactly ONE generation's persisted
//     bundle — never a mix of old routing and new detectors.
//   * Post-swap routing reflects the profiler's reassessed partition.
//   * Controller state round-trips through the registry: a restarted
//     controller resumes profiling bitwise-identically without
//     re-observing history.
//   * ModelRegistry::latest() resolves the newest published generation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/framework.hpp"
#include "serve/adaptive_controller.hpp"
#include "serve/model_registry.hpp"
#include "serve/scoring_service.hpp"

#include "serve_fixture.hpp"

namespace goodones::serve {
namespace {

using fixture::expect_identical_response;

core::RiskProfilingFramework& framework() {
  return fixture::mini_framework</*population_seed=*/17, /*seed=*/777>();
}

std::filesystem::path registry_root(const char* suffix) {
  return std::filesystem::temp_directory_path() /
         (std::string("goodones_serve_adaptive_") + suffix);
}

ScoreRequest entity_request(std::size_t entity, bool manipulated) {
  return fixture::entity_request(framework(), entity, manipulated, /*max_windows=*/4);
}

TEST(AdaptiveServing, ConcurrentRefreshSwapsGenerationsAtomically) {
  const auto root = registry_root("e2e");
  std::filesystem::remove_all(root);
  auto& fw = framework();

  ServingModel gen0 = build_serving_model(fw, detect::DetectorKind::kKnn);
  const std::vector<Cluster> gen0_routing = gen0.entity_cluster;
  const std::size_t n_entities = gen0.entity_names.size();

  RegistryKey base_key = registry_key(fw, detect::DetectorKind::kKnn);
  const ModelRegistry registry(root);
  registry.save(gen0);  // generation 0 must be reloadable for verification

  ScoringService service(clone_serving_model(gen0), {.threads = 2});
  AdaptiveControllerConfig config;
  config.profiler.decay = 0.6;      // adapt fast enough for a short test
  config.profiler.hysteresis = 0.05;
  config.reassess_every_windows = 32;
  AdaptiveController controller(service, config, /*rebuilder=*/{}, &registry);

  // Evasion pressure lands exactly on the entities the offline pipeline
  // called less vulnerable: the online partition MUST end up different
  // from the trained gen-0 routing, forcing a refresh.
  std::vector<bool> manipulated(n_entities, false);
  for (std::size_t e = 0; e < n_entities; ++e) {
    manipulated[e] = gen0_routing[e] == Cluster::kLessVulnerable;
  }

  struct Recorded {
    ScoreRequest request;
    ScoreResponse response;
  };
  std::mutex recorded_mutex;
  std::vector<Recorded> recorded;

  const auto drive_traffic = [&](std::size_t iterations, bool flip) {
    std::vector<Recorded> local;
    for (std::size_t iter = 0; iter < iterations; ++iter) {
      std::vector<ScoreRequest> requests;
      for (std::size_t e = 0; e < n_entities; ++e) {
        requests.push_back(entity_request(e, flip ? !manipulated[e] : manipulated[e]));
      }
      const auto responses =
          service.score_batch(std::span<const ScoreRequest>(requests));
      for (std::size_t r = 0; r < requests.size(); ++r) {
        local.push_back({requests[r], responses[r]});
      }
    }
    const std::lock_guard<std::mutex> lock(recorded_mutex);
    recorded.insert(recorded.end(), std::make_move_iterator(local.begin()),
                    std::make_move_iterator(local.end()));
  };

  // Phase 1: concurrent traffic while the controller decides to refresh.
  // The cadence trip only ENQUEUES for the refresh worker, so settle the
  // queue before asserting on published generations.
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) threads.emplace_back(drive_traffic, 12, false);
    for (auto& thread : threads) thread.join();
  }
  controller.drain();
  ASSERT_GE(controller.refreshes(), 1u) << "sustained pressure must force a refresh";
  const std::size_t phase1_refreshes = controller.refreshes();

  // The published routing must reflect the profiler's partition: pressured
  // entities routed more-vulnerable, quiet ones less-vulnerable.
  {
    const auto model = service.model();
    const auto profiler = controller.profiler_snapshot();
    std::vector<Cluster> expected(n_entities, Cluster::kLessVulnerable);
    for (const std::size_t p : profiler.partition().more_vulnerable) {
      expected[p] = Cluster::kMoreVulnerable;
    }
    EXPECT_EQ(model->entity_cluster, expected);
    EXPECT_NE(model->entity_cluster, gen0_routing);
    // Every pressured entity must now route more-vulnerable. (A clean
    // entity MAY join them if its natural forecast-error risk lands on the
    // high side of the max-gap split — that is the profiler's call.)
    for (std::size_t e = 0; e < n_entities; ++e) {
      if (manipulated[e]) {
        EXPECT_EQ(model->entity_cluster[e], Cluster::kMoreVulnerable) << "entity " << e;
      }
    }
  }

  // Phase 2: the pressure flips sides; the loop must adapt again (the
  // paper's "regularly reassesses ... and continuously updates").
  for (std::size_t iter = 0; iter < 80 && controller.refreshes() == phase1_refreshes;
       ++iter) {
    drive_traffic(1, /*flip=*/true);
  }
  controller.drain();  // the last trip may still be on the worker
  EXPECT_GT(controller.refreshes(), phase1_refreshes);
  // One more round so the newest generation also serves recorded traffic
  // (the batch that triggered the swap was still answered by its own
  // snapshot — that is the point of the atomicity guarantee). Drain first
  // so no further publish can land after we snapshot the generation set.
  // That round can itself trip a refresh, which would publish a generation
  // no recorded response used, so repeat it until a round publishes nothing.
  controller.drain();
  for (int round = 0; round < 20; ++round) {
    const std::size_t published = controller.refreshes();
    drive_traffic(1, /*flip=*/true);
    controller.drain();
    if (controller.refreshes() == published) break;
  }

  // Every recorded response must be bitwise-reproducible against exactly
  // the generation it claims — scored again through a fresh service pinned
  // to that generation's persisted bundle. This is the no-mixed-fleet
  // guarantee: routing, detectors and forecasters all belong to one
  // coherent published generation.
  std::set<std::uint64_t> generations;
  for (const auto& record : recorded) generations.insert(record.response.generation);
  EXPECT_GE(generations.size(), 2u) << "test must span a hot swap";

  for (const std::uint64_t generation : generations) {
    RegistryKey key = base_key;
    key.generation = generation;
    ASSERT_TRUE(registry.contains(key)) << "generation " << generation;
    const ScoringService pinned(registry.load(key), {.threads = 1});
    for (const auto& record : recorded) {
      if (record.response.generation != generation) continue;
      const ScoreResponse replay = pinned.score(record.request);
      ASSERT_EQ(replay.generation, generation);
      expect_identical_response(record.response, replay);
      // Routing consistency inside the response: the served cluster is the
      // pinned generation's routing entry for that entity.
      EXPECT_EQ(record.response.cluster,
                pinned.model()->entity_cluster[record.response.entity_index]);
    }
  }

  // latest() resolves the newest published generation.
  const auto newest = registry.latest(base_key);
  ASSERT_TRUE(newest.has_value());
  EXPECT_EQ(newest->generation, *generations.rbegin());

  std::filesystem::remove_all(root);
}

TEST(AdaptiveServing, RetrainingRebuilderRetrainsPerClusterDetectors) {
  auto& fw = framework();
  ServingModel gen0 = build_serving_model(fw, detect::DetectorKind::kKnn);
  ScoringService service(std::move(gen0), {.threads = 1});

  AdaptiveControllerConfig config;
  config.profiler.decay = 0.5;
  config.auto_refresh = false;  // drive the loop manually
  config.reassess_every_windows = 1;
  // The issue's full refresh: retrain both cluster detectors on the new
  // partition through the framework's train_detector seam.
  AdaptiveController controller(
      service, config,
      [&fw](const core::VulnerabilityClusters& partition, std::uint64_t generation) {
        return build_serving_model(fw, detect::DetectorKind::kKnn, partition, generation);
      });

  const std::size_t n = service.model()->entity_names.size();
  const std::vector<Cluster> before = service.model()->entity_cluster;
  // Pressure exactly the trained less-vulnerable entities.
  for (std::size_t iter = 0; iter < 6; ++iter) {
    for (std::size_t e = 0; e < n; ++e) {
      (void)service.score(entity_request(e, before[e] == Cluster::kLessVulnerable));
    }
  }
  ASSERT_TRUE(controller.maybe_refresh());
  EXPECT_EQ(service.generation(), 1u);
  EXPECT_NE(service.model()->entity_cluster, before);
  // The rebuilt bundle serves (its retrained detectors answer).
  const ScoreResponse response = service.score(entity_request(0, false));
  EXPECT_EQ(response.generation, 1u);
  ASSERT_FALSE(response.windows.empty());
}

TEST(AdaptiveServing, ControllerStateRoundTripsThroughRegistry) {
  const auto root = registry_root("state");
  std::filesystem::remove_all(root);
  auto& fw = framework();
  const ModelRegistry registry(root);

  ServingModel model = build_serving_model(fw, detect::DetectorKind::kKnn);
  const std::size_t n = model.entity_names.size();

  ScoringService service(clone_serving_model(model), {.threads = 1});
  AdaptiveControllerConfig config;
  config.auto_refresh = false;
  AdaptiveController controller(service, config);

  for (std::size_t iter = 0; iter < 4; ++iter) {
    for (std::size_t e = 0; e < n; ++e) {
      (void)service.score(entity_request(e, e % 2 == 0));
    }
  }
  controller.save_state(registry);

  // A restarted controller (fresh service, fresh profiler) resumes with
  // bitwise-identical levels and batch counts WITHOUT re-observing history.
  ScoringService restarted_service(clone_serving_model(model), {.threads = 1});
  AdaptiveController restarted(restarted_service, config, /*rebuilder=*/{}, &registry);

  const auto original = controller.profiler_snapshot();
  auto resumed = restarted.profiler_snapshot();
  ASSERT_EQ(resumed.num_victims(), original.num_victims());
  for (std::size_t e = 0; e < n; ++e) {
    EXPECT_EQ(resumed.level(e), original.level(e)) << "entity " << e;
    EXPECT_EQ(resumed.batches(e), original.batches(e)) << "entity " << e;
  }
  // And both derive the same partition from that state.
  auto original_copy = original;
  EXPECT_EQ(original_copy.reassess().more_vulnerable, resumed.reassess().more_vulnerable);

  std::filesystem::remove_all(root);
}

TEST(AdaptiveServing, ProfilerSerializationRejectsRosterDrift) {
  risk::OnlineRiskProfiler profiler({"A", "B"}, {});
  profiler.observe_risks(0, std::vector<double>{1.0, 2.0});
  profiler.observe_risks(1, std::vector<double>{5.0});
  std::stringstream buffer;
  profiler.save(buffer);

  risk::OnlineRiskProfiler same({"A", "B"}, {});
  buffer.seekg(0);
  same.load(buffer);
  EXPECT_EQ(same.level(0), profiler.level(0));
  EXPECT_EQ(same.level(1), profiler.level(1));
  EXPECT_EQ(same.batches(0), 1u);

  risk::OnlineRiskProfiler renamed({"A", "C"}, {});
  buffer.seekg(0);
  EXPECT_THROW(renamed.load(buffer), common::SerializationError);

  risk::OnlineRiskProfiler resized({"A", "B", "C"}, {});
  buffer.seekg(0);
  EXPECT_THROW(resized.load(buffer), common::SerializationError);

  // A non-finite level is refused before anything is committed.
  const std::string bytes = buffer.str();
  const double level_a = profiler.level(0);
  const std::size_t at =
      bytes.find(std::string_view(reinterpret_cast<const char*>(&level_a), sizeof(level_a)));
  ASSERT_NE(at, std::string::npos);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::infinity()}) {
    std::string tampered = bytes;
    std::memcpy(tampered.data() + at, &bad, sizeof(bad));
    std::stringstream in(tampered);
    EXPECT_THROW(same.load(in), common::SerializationError) << bad;
    EXPECT_EQ(same.level(0), profiler.level(0));
    EXPECT_EQ(same.level(1), profiler.level(1));
  }
}

TEST(AdaptiveServing, AutoRefreshFailureDoesNotAbortScoring) {
  auto& fw = framework();
  ServingModel gen0 = build_serving_model(fw, detect::DetectorKind::kKnn);
  const std::vector<Cluster> routing = gen0.entity_cluster;
  ScoringService service(std::move(gen0), {.threads = 1});

  AdaptiveControllerConfig config;
  config.profiler.decay = 0.5;
  config.reassess_every_windows = 8;  // trip quickly
  AdaptiveController controller(
      service, config,
      [](const core::VulnerabilityClusters&, std::uint64_t) -> ServingModel {
        throw common::PreconditionError("rebuilder exploded");
      });

  // Pressure that forces a partition move -> the hook trips a refresh ->
  // the rebuilder throws (on the refresh worker). The scoring calls must
  // still return verdicts on the current generation.
  const std::size_t n = service.model()->entity_names.size();
  for (std::size_t iter = 0; iter < 6; ++iter) {
    for (std::size_t e = 0; e < n; ++e) {
      const ScoreResponse response =
          service.score(entity_request(e, routing[e] == Cluster::kLessVulnerable));
      EXPECT_EQ(response.generation, 0u);  // never published
      EXPECT_FALSE(response.windows.empty());
    }
  }
  controller.drain();  // every worker attempt has failed and been contained
  EXPECT_EQ(controller.refreshes(), 0u);
  // The explicit path surfaces the failure to its caller.
  EXPECT_THROW((void)controller.maybe_refresh(), common::PreconditionError);
}

TEST(AdaptiveServing, SwapRejectsForeignRoster) {
  auto& fw = framework();
  ServingModel model = build_serving_model(fw, detect::DetectorKind::kKnn);
  ServingModel renamed = clone_serving_model(model);
  renamed.entity_names.back() = "IMPOSTOR";
  ScoringService service(std::move(model), {.threads = 1});
  EXPECT_THROW(service.swap_model(std::move(renamed)), common::PreconditionError);
}

TEST(AdaptiveServing, RebuildRoutingValidatesPartitions) {
  auto& fw = framework();
  const std::size_t n = fw.entities().size();

  core::VulnerabilityClusters valid;
  for (std::size_t i = 0; i < n; ++i) {
    (i % 2 == 0 ? valid.less_vulnerable : valid.more_vulnerable).push_back(i);
  }
  const auto canonical = fw.rebuild_routing(valid);
  EXPECT_TRUE(std::is_sorted(canonical.less_vulnerable.begin(),
                             canonical.less_vulnerable.end()));

  core::VulnerabilityClusters duplicate = valid;
  duplicate.more_vulnerable.push_back(0);  // 0 already less-vulnerable
  EXPECT_THROW((void)fw.rebuild_routing(duplicate), common::PreconditionError);

  core::VulnerabilityClusters missing = valid;
  missing.less_vulnerable.pop_back();
  EXPECT_THROW((void)fw.rebuild_routing(missing), common::PreconditionError);

  core::VulnerabilityClusters unknown = valid;
  unknown.more_vulnerable.push_back(n + 7);
  EXPECT_THROW((void)fw.rebuild_routing(unknown), common::PreconditionError);
}

}  // namespace
}  // namespace goodones::serve
