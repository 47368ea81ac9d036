// End-to-end tests for the ingest/score-latest path: raw ticks stream into
// the daemon-owned column store once, windows are cut server-side as
// zero-copy views, and the verdicts are BITWISE-identical to the legacy
// Score frame fed the same window bytes — in process, over a live daemon
// socket, through the mesh router, and across a daemon restart on a
// persisted store — and the view path feeds the canary mirror and the
// adaptive controller exactly as the legacy path does. A window's verdict
// is also the same scored alone or inside a larger request. Plus the
// protocol edges: unknown entities, short histories, and the serve.store.*
// gauges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/socket.hpp"
#include "core/framework.hpp"
#include "data/column_store.hpp"
#include "data/window.hpp"
#include "serve/daemon.hpp"
#include "serve/router.hpp"
#include "serve/scoring_service.hpp"

#include "serve_fixture.hpp"

namespace goodones::serve {
namespace {

using fixture::unique_path;
using fixture::expect_identical_response;

core::RiskProfilingFramework& framework() {
  return fixture::mini_framework</*population_seed=*/31, /*seed=*/909>();
}

/// One entity's recorded ticks (a slice of its held-out series keeps the
/// test fast while still rolling segments).
struct Trace {
  std::string entity;
  nn::Matrix ticks;
  std::vector<data::Regime> regimes;
};

std::vector<Trace> fleet_traces(std::size_t ticks_per_entity) {
  std::vector<Trace> traces;
  for (const auto& entity : framework().entities()) {
    Trace trace;
    trace.entity = entity.name;
    const std::size_t n = std::min(ticks_per_entity, entity.test.steps());
    trace.ticks = nn::Matrix(n, entity.test.num_channels());
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t c = 0; c < trace.ticks.cols(); ++c) {
        trace.ticks(t, c) = entity.test.values(t, c);
      }
    }
    trace.regimes.assign(entity.test.regimes.begin(), entity.test.regimes.begin() + n);
    traces.push_back(std::move(trace));
  }
  return traces;
}

/// The legacy framing of the store's `count` most recent windows: same
/// bytes, same regimes (the window's LAST row — the view contract), re-sent
/// explicitly. This is the request ScoreLatest must match bitwise.
ScoreRequest legacy_request(const Trace& trace, std::size_t seq_len, std::size_t count) {
  ScoreRequest request;
  request.entity = trace.entity;
  const std::size_t total = trace.ticks.rows();
  for (std::size_t end = total - count; end < total; ++end) {
    TelemetryWindow window;
    window.regime = trace.regimes[end];
    window.features = nn::Matrix(seq_len, trace.ticks.cols());
    for (std::size_t t = 0; t < seq_len; ++t) {
      for (std::size_t c = 0; c < trace.ticks.cols(); ++c) {
        window.features(t, c) = trace.ticks(end + 1 - seq_len + t, c);
      }
    }
    request.windows.push_back(std::move(window));
  }
  return request;
}

std::uint64_t stat_value(const wire::StatsSnapshot& stats, const std::string& name) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "missing stat " << name;
  return 0;
}

TEST(ServeIngest, ScoreViewsBitwiseMatchesLegacyScoreInProcess) {
  auto& fw = framework();
  const ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);

  // One service per path, each with a canary mirroring a strict subset and
  // an adaptive controller on its feedback tap: the view path must feed
  // both exactly as the legacy path does.
  ScoringServiceConfig config;
  config.threads = 2;
  config.canary.sample_per_million = 500000;
  config.canary.auto_decide = false;
  ScoringService views_service(clone_serving_model(bundle), config);
  ScoringService legacy_service(clone_serving_model(bundle), config);
  AdaptiveControllerConfig adaptive;
  adaptive.auto_refresh = false;
  const AdaptiveController views_controller(views_service, adaptive);
  const AdaptiveController legacy_controller(legacy_service, adaptive);
  for (ScoringService* service : {&views_service, &legacy_service}) {
    ServingModel candidate = clone_serving_model(bundle);
    candidate.generation = 1;
    service->install_candidate(std::move(candidate));
  }

  // Small capacity: the latest windows straddle segment seals.
  data::ColumnStoreConfig store_config;
  store_config.segment_capacity = 17;
  data::ColumnStore store(store_config, fw.domain().spec().num_channels);

  constexpr std::size_t kSeqLen = data::kDefaultSeqLen;
  constexpr std::size_t kCount = 24;
  std::size_t requests = 0;
  for (const Trace& trace : fleet_traces(60)) {
    store.append_block(trace.entity, trace.ticks, trace.regimes);
    for (const std::size_t count : {kCount, std::size_t{7}, std::size_t{1}}) {
      const std::vector<data::WindowView> views =
          store.latest_windows(trace.entity, kSeqLen, count);
      const ScoreResponse from_views =
          views_service.score_views(trace.entity, std::span<const data::WindowView>(views));
      const ScoreResponse from_legacy =
          legacy_service.score(legacy_request(trace, kSeqLen, count));
      expect_identical_response(from_legacy, from_views);
      ASSERT_EQ(from_views.windows.size(), count);
      ++requests;
    }
  }

  const CanaryMetrics a = views_service.canary_metrics();
  const CanaryMetrics b = legacy_service.canary_metrics();
  EXPECT_GT(a.mirrored_requests, 0u);
  EXPECT_LT(a.mirrored_requests, requests);  // genuinely a subset
  EXPECT_EQ(a.mirrored_requests, b.mirrored_requests);
  EXPECT_EQ(a.mirrored_windows, b.mirrored_windows);
  const auto sorted = [](std::vector<double> risks) {
    std::sort(risks.begin(), risks.end());
    return risks;
  };
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].mirrored_windows, b.clusters[c].mirrored_windows);
    EXPECT_EQ(a.clusters[c].primary_flags, b.clusters[c].primary_flags);
    EXPECT_EQ(a.clusters[c].candidate_flags, b.clusters[c].candidate_flags);
    EXPECT_EQ(a.clusters[c].state_flips, b.clusters[c].state_flips);
    EXPECT_EQ(sorted(a.clusters[c].primary_risks), sorted(b.clusters[c].primary_risks));
    EXPECT_EQ(sorted(a.clusters[c].candidate_risks), sorted(b.clusters[c].candidate_risks));
  }

  EXPECT_EQ(views_controller.windows_ingested(), legacy_controller.windows_ingested());
  EXPECT_EQ(views_controller.windows_ingested(), fw.entities().size() * (kCount + 7 + 1));
  const risk::OnlineRiskProfiler views_profiler = views_controller.profiler_snapshot();
  const risk::OnlineRiskProfiler legacy_profiler = legacy_controller.profiler_snapshot();
  ASSERT_EQ(views_profiler.num_victims(), legacy_profiler.num_victims());
  for (std::size_t i = 0; i < views_profiler.num_victims(); ++i) {
    EXPECT_EQ(views_profiler.level(i), legacy_profiler.level(i)) << i;
    EXPECT_EQ(views_profiler.batches(i), legacy_profiler.batches(i)) << i;
  }
}

TEST(ServeIngest, VerdictDoesNotDependOnTheOtherWindowsOfItsRequest) {
  // Stride-1 windows share no leading row, so predict_batch runs a request
  // of them through the packed whole-sequence path, while a lone window
  // runs as a fully shared cluster. Each window's verdict must still be
  // bitwise the same either way.
  auto& fw = framework();
  const ScoringService service(build_serving_model(fw, detect::DetectorKind::kKnn),
                               ScoringServiceConfig{.threads = 2});
  constexpr std::size_t kSeqLen = data::kDefaultSeqLen;
  constexpr std::size_t kCount = 24;
  for (const Trace& trace : fleet_traces(60)) {
    const ScoreRequest batch = legacy_request(trace, kSeqLen, kCount);
    const ScoreResponse together = service.score(batch);
    ASSERT_EQ(together.windows.size(), kCount);
    for (std::size_t w = 0; w < kCount; ++w) {
      ScoreRequest alone;
      alone.entity = batch.entity;
      alone.windows.push_back(batch.windows[w]);
      ScoreResponse expected = together;
      expected.windows = {together.windows[w]};
      expect_identical_response(expected, service.score(alone));
    }
  }
}

TEST(ServeIngest, ScoreLatestBitwiseMatchesLegacyScoreThroughDaemon) {
  auto& fw = framework();
  DaemonConfig config;
  const std::filesystem::path socket_path = unique_path("go_ingest_d", ".sock");
  config.listen = common::Endpoint::unix_socket(socket_path);
  config.registry_root = unique_path("go_ingest_d", "_reg");
  config.adaptive_enabled = false;
  config.store_segment_capacity = 19;  // roll segments inside the test
  std::filesystem::remove_all(config.registry_root);
  Daemon daemon(build_serving_model(fw, detect::DetectorKind::kKnn), config);
  daemon.start();
  DaemonClient client(socket_path);

  constexpr std::size_t kCount = 8;
  for (const Trace& trace : fleet_traces(50)) {
    wire::IngestRequest ingest;
    ingest.entity = trace.entity;
    ingest.ticks = trace.ticks;
    ingest.regimes = trace.regimes;
    const wire::IngestReply reply = client.ingest(ingest);
    EXPECT_EQ(reply.accepted, trace.ticks.rows());
    EXPECT_EQ(reply.total_ticks, trace.ticks.rows());

    wire::ScoreLatestRequest latest;
    latest.entity = trace.entity;
    latest.count = kCount;
    const ScoreResponse from_store = client.score_latest(latest);
    const ScoreResponse from_legacy =
        client.score(legacy_request(trace, data::kDefaultSeqLen, kCount));
    expect_identical_response(from_legacy, from_store);
    ASSERT_EQ(from_store.windows.size(), kCount);
  }

  // The store gauges ride the Stats frame.
  const wire::StatsSnapshot stats = client.stats();
  EXPECT_EQ(stat_value(stats, "serve.store.entities"), fw.entities().size());
  EXPECT_EQ(stat_value(stats, "serve.store.ticks"), fw.entities().size() * 50);
  EXPECT_GE(stat_value(stats, "serve.store.segments"), fw.entities().size() * 2);
  EXPECT_GE(stat_value(stats, "serve.daemon.ingests"), fw.entities().size());

  // Unknown entity and short history surface as typed BadRequest, and the
  // connection stays usable afterwards.
  wire::IngestRequest bogus;
  bogus.entity = "NO_SUCH_NODE";
  bogus.ticks = nn::Matrix(1, fw.domain().spec().num_channels);
  bogus.regimes = {data::Regime::kBaseline};
  EXPECT_THROW((void)client.ingest(bogus), common::PreconditionError);
  wire::ScoreLatestRequest too_many;
  too_many.entity = fw.entities().front().name;
  too_many.count = 1000;  // far more windows than 50 ticks hold
  EXPECT_THROW((void)client.score_latest(too_many), common::PreconditionError);
  EXPECT_EQ(client.health().generation, daemon.generation());

  daemon.stop();
  std::filesystem::remove_all(config.registry_root);
}

TEST(ServeIngest, PersistedStoreServesIdenticalVerdictsAcrossRestart) {
  auto& fw = framework();
  ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);
  const std::filesystem::path store_root = unique_path("go_ingest_store", "_col");
  const std::filesystem::path registry_root = unique_path("go_ingest_store", "_reg");
  std::filesystem::remove_all(store_root);
  std::filesystem::remove_all(registry_root);

  DaemonConfig config;
  config.listen = common::Endpoint::unix_socket(unique_path("go_ingest_store", ".sock"));
  config.registry_root = registry_root;
  config.adaptive_enabled = false;
  config.store_root = store_root;
  config.store_segment_capacity = 13;

  const std::vector<Trace> traces = fleet_traces(40);
  std::vector<ScoreResponse> before;
  {
    Daemon daemon(clone_serving_model(bundle), config);
    daemon.start();
    DaemonClient client(config.listen);
    for (const Trace& trace : traces) {
      wire::IngestRequest ingest;
      ingest.entity = trace.entity;
      ingest.ticks = trace.ticks;
      ingest.regimes = trace.regimes;
      (void)client.ingest(ingest);
      wire::ScoreLatestRequest latest;
      latest.entity = trace.entity;
      latest.count = 4;
      before.push_back(client.score_latest(latest));
    }
    daemon.stop();  // destructor flushes the partial active segments
  }

  // A fresh daemon on the same root serves the same history: identical
  // verdicts without re-ingesting a single tick.
  {
    Daemon daemon(std::move(bundle), config);
    daemon.start();
    DaemonClient client(config.listen);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      EXPECT_EQ(daemon.store().ticks(traces[i].entity), traces[i].ticks.rows());
      wire::ScoreLatestRequest latest;
      latest.entity = traces[i].entity;
      latest.count = 4;
      expect_identical_response(before[i], client.score_latest(latest));
    }
    daemon.stop();
  }
  // Only now: the destructor's flush would recreate a root removed earlier.
  std::filesystem::remove_all(store_root);
  std::filesystem::remove_all(registry_root);
}

TEST(ServeIngest, IngestAndScoreLatestRouteThroughMeshBitwise) {
  auto& fw = framework();
  ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);
  const std::vector<std::string> entities = bundle.entity_names;

  // Two shards, each loaded with the FULL bundle so any ring placement is
  // valid — this test pins routing + bitwise transport of the new frames;
  // serve_mesh_test covers sliced bundles.
  RouterConfig router_config;
  router_config.listen = common::Endpoint::tcp("127.0.0.1", 0);
  router_config.vnodes = 64;
  router_config.health_interval_ms = 50;
  router_config.accept_poll_ms = 20;

  std::vector<std::filesystem::path> roots;
  std::vector<std::unique_ptr<Daemon>> shards;
  const char* const kShardNames[2] = {"alpha", "beta"};
  for (std::size_t s = 0; s < 2; ++s) {
    roots.push_back(unique_path(std::string("go_ingest_mesh_s") + kShardNames[s], "_reg"));
    std::filesystem::remove_all(roots[s]);
    DaemonConfig config;
    config.listen = common::Endpoint::tcp("127.0.0.1", 0);
    config.registry_root = roots[s];
    config.adaptive_enabled = false;
    config.accept_poll_ms = 20;
    shards.push_back(std::make_unique<Daemon>(clone_serving_model(bundle), config));
    shards[s]->start();
    router_config.backends.push_back({kShardNames[s], shards[s]->endpoint()});
  }
  Router router(router_config);
  router.start();
  DaemonClient client(router.endpoint());

  constexpr std::size_t kCount = 6;
  for (const Trace& trace : fleet_traces(30)) {
    wire::IngestRequest ingest;
    ingest.entity = trace.entity;
    ingest.ticks = trace.ticks;
    ingest.regimes = trace.regimes;
    const wire::IngestReply reply = client.ingest(ingest);
    EXPECT_EQ(reply.accepted, trace.ticks.rows());

    // The entity's ticks landed on exactly its owning shard — ingest is
    // routed by the same consistent hash as scoring.
    const std::string owner = router.shard_for(trace.entity);
    for (std::size_t s = 0; s < 2; ++s) {
      const std::uint64_t expected =
          owner == kShardNames[s] ? trace.ticks.rows() : 0u;
      EXPECT_EQ(shards[s]->store().ticks(trace.entity), expected)
          << trace.entity << " on " << kShardNames[s];
    }

    wire::ScoreLatestRequest latest;
    latest.entity = trace.entity;
    latest.count = kCount;
    const ScoreResponse from_mesh = client.score_latest(latest);
    const ScoreResponse from_legacy =
        client.score(legacy_request(trace, data::kDefaultSeqLen, kCount));
    expect_identical_response(from_legacy, from_mesh);
  }

  router.stop();
  for (auto& shard : shards) shard->stop();
  for (const auto& root : roots) std::filesystem::remove_all(root);
}

#ifdef GOODONES_CLIENT_BIN
TEST(ServeIngest, CliClientIngestsAndScoresLatest) {
  auto& fw = framework();
  DaemonConfig config;
  const std::filesystem::path socket_path = unique_path("go_ingest_cli", ".sock");
  config.listen = common::Endpoint::unix_socket(socket_path);
  config.registry_root = unique_path("go_ingest_cli", "_reg");
  config.adaptive_enabled = false;
  std::filesystem::remove_all(config.registry_root);
  Daemon daemon(build_serving_model(fw, detect::DetectorKind::kKnn), config);
  daemon.start();

  // A ticks CSV: channel columns only, one row per tick.
  const Trace trace = fleet_traces(20).front();
  std::vector<std::string> header;
  for (std::size_t c = 0; c < trace.ticks.cols(); ++c) {
    header.push_back("ch" + std::to_string(c));
  }
  common::CsvTable csv(header);
  for (std::size_t t = 0; t < trace.ticks.rows(); ++t) {
    std::vector<std::string> row;
    for (std::size_t c = 0; c < trace.ticks.cols(); ++c) {
      std::ostringstream value;
      value.precision(17);
      value << trace.ticks(t, c);
      row.push_back(value.str());
    }
    csv.add_row(std::move(row));
  }
  const auto csv_path = unique_path("go_ingest_cli", ".csv");
  const auto out_path = unique_path("go_ingest_cli", ".out");
  csv.write(csv_path);

  const std::string base = std::string(GOODONES_CLIENT_BIN) + " " + socket_path.string();
  ASSERT_EQ(std::system((base + " ingest " + trace.entity + " " + csv_path.string() +
                         " > " + out_path.string())
                            .c_str()),
            0);
  {
    std::ifstream out(out_path);
    std::stringstream captured;
    captured << out.rdbuf();
    EXPECT_NE(captured.str().find("ingested 20 ticks"), std::string::npos)
        << captured.str();
  }
  ASSERT_EQ(std::system((base + " score-latest " + trace.entity + " 2 > " +
                         out_path.string())
                            .c_str()),
            0);
  {
    std::ifstream out(out_path);
    std::stringstream captured;
    captured << out.rdbuf();
    EXPECT_NE(captured.str().find("window 1"), std::string::npos) << captured.str();
    EXPECT_NE(captured.str().find("generation 0"), std::string::npos) << captured.str();
  }

  daemon.stop();
  std::filesystem::remove(csv_path);
  std::filesystem::remove(out_path);
  std::filesystem::remove_all(config.registry_root);
}
#endif  // GOODONES_CLIENT_BIN

}  // namespace
}  // namespace goodones::serve
