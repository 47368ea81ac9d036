// End-to-end tests for canary (shadow) deployments of candidate generations:
//
//   * The primary contract: responses are BITWISE identical whether or not
//     a candidate is mirroring — the canary path runs strictly after the
//     primary response is assembled and never touches its bytes.
//   * Mirrored-sampling determinism: the splitmix draw over (entity,
//     request sequence) means two identical request streams mirror
//     identical subsets — canaries are replayable, never wall-clock noise.
//   * The policy loop: a deliberately-degraded candidate (its cluster
//     detectors invert every verdict) trips auto-rollback; a clean clone
//     auto-promotes; either way the decision is recorded through the
//     lifecycle observer exactly once.
//   * Daemon integration: in canary mode a Refresh frame stages the rebuild
//     as a candidate, Promote publishes it, and every verdict recorded
//     across the promote replays bitwise against the registry bundle of the
//     generation it names — provenance survives measured rollouts. The
//     registry's promotion lineage records install and promote.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/socket.hpp"
#include "core/framework.hpp"
#include "detect/detector.hpp"
#include "serve/daemon.hpp"

#include "serve_fixture.hpp"

namespace goodones::serve {
namespace {

using fixture::unique_path;
using fixture::expect_identical_response;

core::RiskProfilingFramework& framework() {
  return fixture::mini_framework</*population_seed=*/23, /*seed=*/555>();
}

ScoreRequest entity_request(std::size_t entity, bool manipulated) {
  return fixture::entity_request(framework(), entity, manipulated, /*max_windows=*/4);
}

/// The once-trained bundle every test clones from (training is the
/// expensive part; clones score bitwise-identically).
const ServingModel& base_bundle() {
  static const ServingModel bundle =
      build_serving_model(framework(), detect::DetectorKind::kKnn);
  return bundle;
}

/// Wraps a fitted detector and INVERTS every flag decision while keeping
/// scores untouched — the deliberately-degraded candidate: maximal
/// flag-rate drift with zero score drift, exactly what the canary policy
/// must catch. Never persisted (save/load keep the throwing defaults).
class InvertedDetector final : public detect::AnomalyDetector {
 public:
  explicit InvertedDetector(std::unique_ptr<detect::AnomalyDetector> inner)
      : inner_(std::move(inner)) {}

  detect::InputGranularity granularity() const override { return inner_->granularity(); }
  void fit(const std::vector<nn::Matrix>& benign,
           const std::vector<nn::Matrix>& malicious) override {
    inner_->fit(benign, malicious);
  }
  double anomaly_score(const nn::Matrix& window) const override {
    return inner_->anomaly_score(window);
  }
  bool flags(const nn::Matrix& window) const override { return !inner_->flags(window); }
  std::vector<double> score_batch(std::span<const nn::Matrix> windows) const override {
    return inner_->score_batch(windows);
  }
  bool flags_from_score(const nn::Matrix& window, double score) const override {
    return !inner_->flags_from_score(window, score);
  }
  std::string name() const override { return "inverted(" + inner_->name() + ")"; }
  std::size_t input_width() const noexcept override { return inner_->input_width(); }

 private:
  std::unique_ptr<detect::AnomalyDetector> inner_;
};

ServingModel candidate_clone(std::uint64_t generation, bool degraded = false) {
  ServingModel candidate = clone_serving_model(base_bundle());
  candidate.generation = generation;
  if (degraded) {
    for (auto& detector : candidate.cluster_detectors) {
      detector = std::make_unique<InvertedDetector>(std::move(detector));
    }
  }
  return candidate;
}

/// Thread-safe canary-event log for the lifecycle assertions.
struct EventLog {
  std::mutex mutex;
  std::vector<CanaryEvent> events;
  void attach(ScoringService& service) {
    service.set_canary_observer([this](const CanaryEvent& event) {
      const std::lock_guard<std::mutex> lock(mutex);
      events.push_back(event);
    });
  }
  std::vector<CanaryEvent> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    return events;
  }
};

TEST(ServeCanary, PrimaryResponsesBitwiseIdenticalWithCanaryOnAndOff) {
  const ScoringService plain(clone_serving_model(base_bundle()), {.threads = 1});

  ScoringServiceConfig canary_config{.threads = 1};
  canary_config.canary.sample_per_million = 1000000;  // mirror EVERYTHING
  canary_config.canary.auto_decide = false;           // and never resolve
  ScoringService canaried(clone_serving_model(base_bundle()), canary_config);
  canaried.install_candidate(candidate_clone(1));
  ASSERT_EQ(canaried.candidate_generation(), 1u);

  const std::size_t n_entities = plain.model()->entity_names.size();
  for (int iter = 0; iter < 6; ++iter) {
    for (std::size_t e = 0; e < n_entities; ++e) {
      const ScoreRequest request = entity_request(e, iter % 2 == 0);
      expect_identical_response(canaried.score(request), plain.score(request));
    }
  }
  // The candidate really was mirroring the whole time.
  const CanaryMetrics metrics = canaried.canary_metrics();
  EXPECT_EQ(metrics.state, CanaryState::kMirroring);
  EXPECT_GT(metrics.mirrored_windows, 0u);
  EXPECT_EQ(metrics.mirrored_requests, 6u * n_entities);
  // A clean clone drifts by nothing: zero flips, zero flag drift.
  for (const CanaryClusterMetrics& cluster : metrics.clusters) {
    EXPECT_EQ(cluster.state_flips, 0u);
    EXPECT_EQ(cluster.flag_rate_delta(), 0.0);
    EXPECT_EQ(cluster.risk_distance(), 0.0);
  }
}

TEST(ServeCanary, IdenticalStreamsMirrorIdenticalSubsets) {
  ScoringServiceConfig config{.threads = 1};
  config.canary.sample_per_million = 250000;  // a strict subset
  config.canary.auto_decide = false;
  ScoringService first(clone_serving_model(base_bundle()), config);
  ScoringService second(clone_serving_model(base_bundle()), config);
  first.install_candidate(candidate_clone(1));
  second.install_candidate(candidate_clone(1));

  const std::size_t n_entities = first.model()->entity_names.size();
  for (int iter = 0; iter < 40; ++iter) {
    for (std::size_t e = 0; e < n_entities; ++e) {
      const ScoreRequest request = entity_request(e, iter % 3 == 0);
      (void)first.score(request);
      (void)second.score(request);
    }
  }

  const CanaryMetrics a = first.canary_metrics();
  const CanaryMetrics b = second.canary_metrics();
  EXPECT_GT(a.mirrored_requests, 0u);
  EXPECT_LT(a.mirrored_requests, 40u * n_entities);  // genuinely a subset
  EXPECT_EQ(a.mirrored_requests, b.mirrored_requests);
  EXPECT_EQ(a.mirrored_windows, b.mirrored_windows);
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].mirrored_windows, b.clusters[c].mirrored_windows);
    EXPECT_EQ(a.clusters[c].primary_flags, b.clusters[c].primary_flags);
    EXPECT_EQ(a.clusters[c].candidate_flags, b.clusters[c].candidate_flags);
    EXPECT_EQ(a.clusters[c].state_flips, b.clusters[c].state_flips);
    auto risks_a = a.clusters[c].primary_risks;
    auto risks_b = b.clusters[c].primary_risks;
    std::sort(risks_a.begin(), risks_a.end());
    std::sort(risks_b.begin(), risks_b.end());
    EXPECT_EQ(risks_a, risks_b);
  }
}

TEST(ServeCanary, DegradedCandidateTripsAutoRollback) {
  ScoringServiceConfig config{.threads = 1};
  config.canary.sample_per_million = 1000000;
  config.canary.min_mirrored_windows = 8;
  config.canary.breach_strikes = 2;
  config.canary.max_flag_rate_delta = 0.05;
  ScoringService service(clone_serving_model(base_bundle()), config);
  EventLog log;
  log.attach(service);

  service.install_candidate(candidate_clone(1, /*degraded=*/true));
  ASSERT_EQ(service.candidate_generation(), 1u);

  // Drive clean traffic; the inverted candidate flags everything the
  // primary clears, so every evaluation past the evidence gate breaches.
  for (int iter = 0; iter < 32 && service.candidate_generation() != 0; ++iter) {
    (void)service.score(entity_request(iter % 2, false));
  }

  EXPECT_EQ(service.candidate_generation(), 0u) << "rollback never fired";
  EXPECT_EQ(service.generation(), 0u) << "the degraded bundle must NOT serve";
  const CanaryMetrics metrics = service.canary_metrics();
  EXPECT_EQ(metrics.state, CanaryState::kIdle);
  EXPECT_GE(metrics.breach_streak, 2u);

  const std::vector<CanaryEvent> events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].action, LineageAction::kInstalled);
  EXPECT_EQ(events[1].action, LineageAction::kRolledBack);
  EXPECT_EQ(events[1].candidate_generation, 1u);
  EXPECT_TRUE(events[1].automatic);

  // Post-rollback the canary machinery is quiescent: manual verbs are
  // retry-safe no-ops and nothing new mirrors.
  EXPECT_FALSE(service.promote_candidate());
  EXPECT_FALSE(service.rollback_candidate(1));
  const std::uint64_t mirrored = metrics.mirrored_windows;
  (void)service.score(entity_request(0, false));
  EXPECT_EQ(service.canary_metrics().mirrored_windows, mirrored);
}

TEST(ServeCanary, CleanCandidateAutoPromotesAndServesBitwise) {
  ScoringServiceConfig config{.threads = 1};
  config.canary.sample_per_million = 1000000;
  config.canary.min_mirrored_windows = 8;
  config.canary.breach_strikes = 2;
  ScoringService service(clone_serving_model(base_bundle()), config);
  EventLog log;
  log.attach(service);

  service.install_candidate(candidate_clone(1));
  for (int iter = 0; iter < 32 && service.generation() != 1; ++iter) {
    (void)service.score(entity_request(iter % 2, iter % 2 == 1));
  }

  EXPECT_EQ(service.generation(), 1u) << "promotion never fired";
  EXPECT_EQ(service.candidate_generation(), 0u);
  const std::vector<CanaryEvent> events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].action, LineageAction::kPromoted);
  EXPECT_EQ(events[1].candidate_generation, 1u);
  EXPECT_EQ(events[1].primary_generation, 0u);
  EXPECT_TRUE(events[1].automatic);
  EXPECT_GE(events[1].mirrored_windows, config.canary.min_mirrored_windows);

  // The promoted generation serves bitwise-identically to a service pinned
  // to the same candidate bundle — promotion is the plain swap_model
  // publication, nothing about the canary leaks into scoring.
  const ScoringService pinned(candidate_clone(1), {.threads = 1});
  for (std::size_t e = 0; e < service.model()->entity_names.size(); ++e) {
    const ScoreRequest request = entity_request(e, e % 2 == 0);
    expect_identical_response(service.score(request), pinned.score(request));
  }
}

TEST(ServeCanary, DaemonStagesPromotesAndReplaysBitwiseAcrossGenerations) {
  auto& fw = framework();
  DaemonConfig config;
  const std::filesystem::path socket_path = unique_path("go_canary_d", ".sock");
  config.listen = common::Endpoint::unix_socket(socket_path);
  config.registry_root = unique_path("go_canary_d", "_reg");
  std::filesystem::remove_all(config.registry_root);
  config.adaptive.canary = true;
  config.adaptive.auto_refresh = false;  // the operator drives this rollout
  config.scoring.canary.sample_per_million = 1000000;
  config.scoring.canary.auto_decide = false;  // manual promote is the test
  Daemon daemon(clone_serving_model(base_bundle()), config);
  daemon.start();

  struct Recorded {
    ScoreRequest request;
    ScoreResponse response;
  };
  std::vector<Recorded> recorded;
  DaemonClient client(socket_path);
  const std::size_t n_entities = daemon.service().model()->entity_names.size();
  const auto drive = [&](int iters) {
    for (int iter = 0; iter < iters; ++iter) {
      for (std::size_t e = 0; e < n_entities; ++e) {
        ScoreRequest request = entity_request(e, iter % 2 == 0);
        ScoreResponse response = client.score(request);
        recorded.push_back({std::move(request), std::move(response)});
      }
    }
  };

  // Phase 1: gen-0 traffic (also the profiler evidence a refresh needs).
  drive(4);
  ASSERT_EQ(daemon.generation(), 0u);

  // Refresh in canary mode FORCES a rebuild and stages it — primary stays.
  const wire::GenerationReply refreshed = client.refresh();
  EXPECT_TRUE(refreshed.flag);
  EXPECT_EQ(refreshed.generation, 0u) << "staging must not touch the primary";
  EXPECT_EQ(daemon.service().candidate_generation(), 1u);
  // While a candidate is staged, further refreshes defer.
  EXPECT_FALSE(client.refresh().flag);

  // Phase 2: mirrored traffic (responses still generation 0, bitwise).
  drive(4);
  EXPECT_GT(daemon.service().canary_metrics().mirrored_windows, 0u);

  // The Stats frame surfaces the canary gauges.
  const wire::StatsSnapshot stats = client.stats();
  const auto gauge = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : stats) {
      if (key == name) return value;
    }
    ADD_FAILURE() << "missing gauge " << name;
    return 0;
  };
  EXPECT_EQ(gauge("serve.canary.mirroring"), 1u);
  EXPECT_EQ(gauge("serve.canary.candidate_generation"), 1u);
  EXPECT_GT(gauge("serve.canary.window_total"), 0u);

  // Manual promote publishes the candidate; the duplicate is retry-safe.
  const wire::GenerationReply promoted = client.promote();
  EXPECT_TRUE(promoted.flag);
  EXPECT_EQ(promoted.generation, 1u);
  EXPECT_EQ(daemon.generation(), 1u);
  const wire::GenerationReply duplicate = client.promote(1);
  EXPECT_FALSE(duplicate.flag);
  EXPECT_EQ(duplicate.generation, 1u);

  // Phase 3: gen-1 traffic.
  drive(4);

  // Every verdict replays bitwise against the registry bundle of exactly
  // the generation it names — on both sides of the promote.
  std::set<std::uint64_t> generations;
  for (const auto& record : recorded) generations.insert(record.response.generation);
  EXPECT_EQ(generations, (std::set<std::uint64_t>{0, 1}));
  RegistryKey base_key = registry_key(fw, detect::DetectorKind::kKnn);
  for (const std::uint64_t generation : generations) {
    RegistryKey key = base_key;
    key.generation = generation;
    ASSERT_TRUE(daemon.registry().contains(key)) << "generation " << generation;
    const ScoringService pinned(daemon.registry().load(key), {.threads = 1});
    std::size_t replayed = 0;
    for (const auto& record : recorded) {
      if (record.response.generation != generation) continue;
      if (++replayed > 8) break;
      expect_identical_response(record.response, pinned.score(record.request));
    }
    EXPECT_GE(replayed, 1u);
  }

  // The promotion lineage survives in the registry: install then promote.
  ASSERT_TRUE(daemon.registry().contains_lineage(base_key));
  const std::vector<LineageEvent> lineage = daemon.registry().load_lineage(base_key);
  ASSERT_EQ(lineage.size(), 2u);
  EXPECT_EQ(lineage[0].action, LineageAction::kInstalled);
  EXPECT_EQ(lineage[0].generation, 1u);
  EXPECT_EQ(lineage[1].action, LineageAction::kPromoted);
  EXPECT_EQ(lineage[1].generation, 1u);
  EXPECT_EQ(lineage[1].primary_generation, 0u);
  EXPECT_GT(lineage[1].mirrored_windows, 0u);

  daemon.stop();
  std::filesystem::remove_all(config.registry_root);
}

#ifdef GOODONES_CLIENT_BIN
TEST(ServeCanary, CliVerbsDriveTheCanaryLifecycle) {
  DaemonConfig config;
  const std::filesystem::path socket_path = unique_path("go_canary_cli", ".sock");
  config.listen = common::Endpoint::unix_socket(socket_path);
  config.registry_root = unique_path("go_canary_cli", "_reg");
  std::filesystem::remove_all(config.registry_root);
  config.adaptive.canary = true;
  config.adaptive.auto_refresh = false;
  config.scoring.canary.auto_decide = false;
  Daemon daemon(clone_serving_model(base_bundle()), config);
  daemon.start();

  // Profiler evidence so the forced refresh can stage a candidate.
  DaemonClient warm(socket_path);
  for (std::size_t e = 0; e < daemon.service().model()->entity_names.size(); ++e) {
    (void)warm.score(entity_request(e, false));
  }
  ASSERT_TRUE(warm.refresh().flag);
  ASSERT_EQ(daemon.service().candidate_generation(), 1u);

  const auto run = [&](const std::string& verb) {
    const auto out_path = unique_path("go_canary_cli", ".out");
    const std::string command = std::string(GOODONES_CLIENT_BIN) + " " +
                                socket_path.string() + " " + verb + " > " +
                                out_path.string();
    EXPECT_EQ(std::system(command.c_str()), 0) << verb;
    std::ifstream out(out_path);
    std::stringstream captured;
    captured << out.rdbuf();
    std::filesystem::remove(out_path);
    return captured.str();
  };

  const std::string status = run("canary-status");
  EXPECT_NE(status.find("serve.canary.candidate_generation 1"), std::string::npos)
      << status;
  const std::string promoted = run("promote");
  EXPECT_NE(promoted.find("promoted: primary is now generation 1"), std::string::npos)
      << promoted;
  EXPECT_EQ(daemon.generation(), 1u);
  const std::string rolled = run("rollback 99");
  EXPECT_NE(rolled.find("nothing to apply"), std::string::npos) << rolled;

  daemon.stop();
  std::filesystem::remove_all(config.registry_root);
}
#endif  // GOODONES_CLIENT_BIN

}  // namespace
}  // namespace goodones::serve
