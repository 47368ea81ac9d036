// End-to-end tests for the serving mesh over REAL TCP sockets: a Router in
// front of two backend shard Daemons, each serving its consistent-hash
// slice of the entity fleet.
//
//   * Mesh transparency: a mixed-entity workload through the router is
//     bitwise-identical to the in-process ScoringService on the full
//     bundle. The router forwards Score payloads byte-for-byte and relays
//     the shard's reply untouched, so the mesh must not cost even one ulp.
//   * Fault injection: one shard is killed and restarted (same port, same
//     registry root — the bundle reloads from its persisted generation-0
//     artifact) WHILE traffic flows. Zero requests are lost: the router's
//     forward channels reconnect with bounded backoff and replay, so a
//     shard restart costs latency, not errors. Every recorded verdict
//     replays bitwise against the persisted bundle of the generation it
//     names.
//   * Drain: removing a shard from the ring in-band moves ONLY its keys to
//     the survivor, in-flight work finishes, and the mesh keeps serving.
//   * Refresh broadcast: the router answers the max shard generation and
//     records each shard's in its gauges; when every shard's rebuild
//     throws, the client gets the shard's typed Internal error, not a
//     claim that no shard was reachable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/socket.hpp"
#include "core/framework.hpp"
#include "serve/daemon.hpp"
#include "serve/hash_ring.hpp"
#include "serve/router.hpp"

#include "serve_fixture.hpp"

namespace goodones::serve {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kVnodes = 128;

// Shard names picked once, offline, so the mini fleet's four entities
// (SA_0, SA_1, SB_0, SB_1) split 2/2 across the two shards under the
// ring's stable hash. Placement is a pure function of (names, vnodes,
// key), so this choice cannot rot; mesh_plan() below re-derives the split
// and the tests assert it stayed non-degenerate.
const char* const kShardNames[2] = {"shard-0", "shard-2"};

using fixture::unique_path;
using fixture::expect_identical_response;

core::RiskProfilingFramework& framework() {
  return fixture::mini_framework</*population_seed=*/23, /*seed=*/555>();
}

ScoreRequest entity_request(std::size_t entity, bool manipulated) {
  return fixture::entity_request(framework(), entity, manipulated, /*max_windows=*/3);
}

struct MeshPlan {
  std::vector<std::string> owners;                ///< entity order -> owning shard name
  std::vector<std::vector<std::string>> members;  ///< per kShardNames slot
};

/// The placement a router over kShardNames will compute, derived locally
/// BEFORE any daemon exists — this is what lets the tests slice bundles
/// per shard up front (and what a real deployment's provisioning would do).
MeshPlan mesh_plan(const std::vector<std::string>& entities) {
  HashRing ring(kVnodes);
  for (const char* name : kShardNames) ring.add(name);
  MeshPlan plan;
  plan.members.resize(2);
  for (const std::string& entity : entities) {
    const std::string& owner = ring.owner(entity);
    plan.owners.push_back(owner);
    plan.members[owner == kShardNames[0] ? 0 : 1].push_back(entity);
  }
  return plan;
}

std::uint64_t value_of(const wire::StatsSnapshot& stats, const std::string& name) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return 0;
}

DaemonConfig shard_config(const std::filesystem::path& registry_root,
                          const common::Endpoint& listen) {
  DaemonConfig config;
  config.listen = listen;
  config.registry_root = registry_root;
  config.adaptive_enabled = false;  // frozen generation 0 on every shard
  config.accept_poll_ms = 20;
  return config;
}

TEST(ServeMesh, SliceRegistryKeyIsPinned) {
  // A slice persists under its full domain key, whose "#slice-" tag hashes
  // the member set; a restarted shard finds its bundle by that name, so
  // the tag must give these exact values in every version.
  auto& fw = framework();
  const ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);
  EXPECT_EQ(slice_serving_model(bundle, {"SB_1", "SA_0"}).domain_key,
            "synthtel-2x2#slice-18283a73109714e7");
  EXPECT_EQ(slice_serving_model(bundle, {"SA_1"}).domain_key,
            "synthtel-2x2#slice-2d804752532add3a");
}

TEST(ServeMesh, MixedWorkloadThroughRouterBitwiseMatchesInProcessService) {
  auto& fw = framework();
  ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);
  const ScoringService in_process(clone_serving_model(bundle), {.threads = 1});
  const std::vector<std::string> entities = bundle.entity_names;
  const std::size_t n_entities = entities.size();

  const MeshPlan plan = mesh_plan(entities);
  ASSERT_FALSE(plan.members[0].empty()) << "degenerate split: rechoose kShardNames";
  ASSERT_FALSE(plan.members[1].empty()) << "degenerate split: rechoose kShardNames";

  std::vector<std::unique_ptr<Daemon>> shards;
  std::vector<std::filesystem::path> roots;
  RouterConfig router_config;
  for (std::size_t s = 0; s < 2; ++s) {
    roots.push_back(unique_path("go_mesh_bitwise_s" + std::to_string(s), "_reg"));
    std::filesystem::remove_all(roots[s]);
    shards.push_back(std::make_unique<Daemon>(
        slice_serving_model(bundle, plan.members[s]),
        shard_config(roots[s], common::Endpoint::tcp("127.0.0.1", 0))));
    shards[s]->start();
    router_config.backends.push_back({kShardNames[s], shards[s]->endpoint()});
  }

  router_config.listen = common::Endpoint::tcp("127.0.0.1", 0);
  router_config.vnodes = kVnodes;
  router_config.health_interval_ms = 50;  // fast prober: gauges settle quickly
  router_config.accept_poll_ms = 20;
  Router router(router_config);
  router.start();

  // The router's placement is the one computed locally above — same names,
  // same vnodes, same hash; this is the determinism the slicing relies on.
  for (std::size_t e = 0; e < n_entities; ++e) {
    EXPECT_EQ(router.shard_for(entities[e]), plan.owners[e]) << entities[e];
  }

  std::atomic<std::uint64_t> scored{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      DaemonClient client(router.endpoint());
      for (int iter = 0; iter < 6; ++iter) {
        for (std::size_t e = 0; e < n_entities; ++e) {
          const bool manipulated = (iter + t) % 2 == 0;
          const ScoreRequest request = entity_request(e, manipulated);
          const ScoreResponse over_mesh = client.score(request);
          const ScoreResponse local = in_process.score(request);
          EXPECT_EQ(over_mesh.generation, 0u);
          expect_identical_response(over_mesh, local, /*compare_entity_index=*/false);
          scored.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(scored.load(), 3u * 6u * n_entities);

  // Give the prober one bounded window to mark both shards healthy, then
  // read the whole mesh out of ONE stats round trip.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto statuses = router.shards();
    if (statuses[0].healthy && statuses[1].healthy) break;
    std::this_thread::sleep_for(10ms);
  }

  DaemonClient admin(router.endpoint());
  const wire::StatsSnapshot stats = admin.stats();
  EXPECT_EQ(value_of(stats, "serve.router.shards"), 2u);
  EXPECT_GE(value_of(stats, "serve.router.forwards"), scored.load());
  for (const char* name : kShardNames) {
    const std::string prefix = std::string("serve.router.shard.") + name + ".";
    EXPECT_EQ(value_of(stats, prefix + "healthy"), 1u) << name;
    EXPECT_EQ(value_of(stats, prefix + "draining"), 0u) << name;
    EXPECT_EQ(value_of(stats, prefix + "generation"), 0u) << name;
  }
  const wire::GenerationReply health = admin.health();
  EXPECT_FALSE(health.flag);
  EXPECT_EQ(health.generation, 0u);

  admin.shutdown();
  router.wait();
  EXPECT_FALSE(router.running());
  for (std::size_t s = 0; s < 2; ++s) {
    shards[s]->stop();
    std::filesystem::remove_all(roots[s]);
  }
}

TEST(ServeMesh, ShardRestartMidRunLosesNoRequestsAndReplaysBitwise) {
  auto& fw = framework();
  ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);
  const std::vector<std::string> entities = bundle.entity_names;
  const std::size_t n_entities = entities.size();
  const MeshPlan plan = mesh_plan(entities);
  const RegistryKey base_key = registry_key(fw, detect::DetectorKind::kKnn);

  // Persistent registry roots: the restarted shard must come back from its
  // persisted artifact, not from state the test kept in memory.
  std::vector<std::unique_ptr<Daemon>> shards;
  std::vector<std::filesystem::path> roots;
  std::vector<std::string> slice_keys;  // per-shard slice domain_key
  RouterConfig router_config;
  for (std::size_t s = 0; s < 2; ++s) {
    roots.push_back(unique_path("go_mesh_fault_s" + std::to_string(s), "_reg"));
    std::filesystem::remove_all(roots[s]);
    ServingModel slice = slice_serving_model(bundle, plan.members[s]);
    slice_keys.push_back(slice.domain_key);
    shards.push_back(std::make_unique<Daemon>(
        std::move(slice), shard_config(roots[s], common::Endpoint::tcp("127.0.0.1", 0))));
    shards[s]->start();
    router_config.backends.push_back({kShardNames[s], shards[s]->endpoint()});
  }

  router_config.listen = common::Endpoint::tcp("127.0.0.1", 0);
  router_config.vnodes = kVnodes;
  router_config.accept_poll_ms = 20;
  // Default forward policy: reconnect with backoff, replay retryable round
  // trips. Worst-case absorb window (three retry rounds x backoff schedule,
  // several seconds) comfortably covers the sub-second restart below.
  Router router(router_config);
  router.start();

  // The shard owning entity 0 gets killed mid-run.
  const std::size_t victim =
      plan.owners[0] == kShardNames[0] ? std::size_t{0} : std::size_t{1};
  const common::Endpoint victim_endpoint = shards[victim]->endpoint();

  struct Recorded {
    std::size_t entity;
    ScoreRequest request;
    ScoreResponse response;
  };
  std::mutex recorded_mutex;
  std::vector<Recorded> recorded;
  std::atomic<std::uint64_t> failures{0};
  std::atomic<bool> stop{false};

  const auto drive = [&](int salt) {
    DaemonClient client(router.endpoint());
    std::vector<Recorded> local;
    int iter = 0;
    while (!stop.load()) {
      for (std::size_t e = 0; e < n_entities && !stop.load(); ++e) {
        const ScoreRequest request = entity_request(e, (iter + salt) % 2 == 0);
        try {
          ScoreResponse response = client.score(request);
          local.push_back({e, request, std::move(response)});
        } catch (const std::exception&) {
          // ANY client-visible failure is a lost request — the contract is
          // that the mesh absorbs the restart entirely.
          failures.fetch_add(1);
        }
      }
      ++iter;
    }
    const std::lock_guard<std::mutex> lock(recorded_mutex);
    recorded.insert(recorded.end(), std::make_move_iterator(local.begin()),
                    std::make_move_iterator(local.end()));
  };

  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) clients.emplace_back(drive, t);

  std::this_thread::sleep_for(300ms);  // traffic established

  // Kill the victim (clean process-level analogue: listener unbinds,
  // connections close), leave it dead long enough that live forwards hit
  // the dead endpoint, then bring it back on the SAME port from the SAME
  // registry — a real shard restart.
  shards[victim]->stop();
  std::this_thread::sleep_for(200ms);
  RegistryKey victim_key = base_key;
  victim_key.domain_key = slice_keys[victim];
  victim_key.generation = 0;
  const ModelRegistry victim_registry(roots[victim]);
  ASSERT_TRUE(victim_registry.contains(victim_key));
  shards[victim] = std::make_unique<Daemon>(victim_registry.load(victim_key),
                                            shard_config(roots[victim], victim_endpoint));
  shards[victim]->start();

  std::this_thread::sleep_for(400ms);  // post-restart traffic
  stop.store(true);
  for (auto& client : clients) client.join();

  // Zero lost requests across the restart.
  EXPECT_EQ(failures.load(), 0u);
  ASSERT_FALSE(recorded.empty());

  // The restart actually exercised the reconnect path: the victim's
  // forward pool re-established at least one connection...
  const auto statuses = router.shards();
  std::uint64_t victim_reconnects = 0;
  for (const ShardStatus& status : statuses) {
    if (status.name == kShardNames[victim]) victim_reconnects = status.reconnects;
  }
  EXPECT_GE(victim_reconnects, 1u);

  // ...and the restarted shard serves its entities again right now.
  {
    DaemonClient after(router.endpoint());
    const ScoreResponse response = after.score(entity_request(0, false));
    EXPECT_EQ(response.generation, 0u);
    EXPECT_FALSE(response.windows.empty());
  }

  // Provenance across the fault: every recorded verdict replays bitwise
  // against the PERSISTED bundle of the generation it names, loaded from
  // the owning shard's registry (the restarted shard included).
  for (std::size_t s = 0; s < 2; ++s) {
    RegistryKey key = base_key;
    key.domain_key = slice_keys[s];
    key.generation = 0;
    const ModelRegistry registry(roots[s]);
    ASSERT_TRUE(registry.contains(key)) << kShardNames[s];
    const ScoringService pinned(registry.load(key), {.threads = 1});
    std::size_t replayed = 0;
    for (const Recorded& record : recorded) {
      if (plan.owners[record.entity] != kShardNames[s]) continue;
      ASSERT_EQ(record.response.generation, 0u);
      if (++replayed > 6) break;  // a sample per shard keeps the test fast
      expect_identical_response(record.response, pinned.score(record.request),
                                /*compare_entity_index=*/true);
    }
    EXPECT_GE(replayed, 1u) << kShardNames[s];
  }

  router.stop();
  for (std::size_t s = 0; s < 2; ++s) {
    shards[s]->stop();
    std::filesystem::remove_all(roots[s]);
  }
}

TEST(ServeMesh, DrainMovesOnlyTheDrainedShardsKeysAndKeepsServing) {
  auto& fw = framework();
  ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);
  const ScoringService in_process(clone_serving_model(bundle), {.threads = 1});
  const std::vector<std::string> entities = bundle.entity_names;
  const MeshPlan plan = mesh_plan(entities);

  // Full clone bundles on BOTH shards: a drain reroutes the drained
  // shard's keys to the survivor, so for this test the survivor must be
  // able to score every entity (in a sliced deployment a drain would be
  // paired with re-slicing; ring mechanics are what is under test here).
  std::vector<std::unique_ptr<Daemon>> shards;
  std::vector<std::filesystem::path> roots;
  RouterConfig router_config;
  for (std::size_t s = 0; s < 2; ++s) {
    roots.push_back(unique_path("go_mesh_drain_s" + std::to_string(s), "_reg"));
    std::filesystem::remove_all(roots[s]);
    shards.push_back(std::make_unique<Daemon>(
        clone_serving_model(bundle),
        shard_config(roots[s], common::Endpoint::tcp("127.0.0.1", 0))));
    shards[s]->start();
    router_config.backends.push_back({kShardNames[s], shards[s]->endpoint()});
  }

  router_config.listen = common::Endpoint::tcp("127.0.0.1", 0);
  router_config.vnodes = kVnodes;
  router_config.accept_poll_ms = 20;
  Router router(router_config);
  router.start();

  DaemonClient client(router.endpoint());
  for (std::size_t e = 0; e < entities.size(); ++e) {
    expect_identical_response(client.score(entity_request(e, false)),
                              in_process.score(entity_request(e, false)),
                              /*compare_entity_index=*/true);
  }

  // Unknown shard: typed no-op.
  EXPECT_FALSE(client.drain("no-such-shard").drained);

  // Drain shard 0 in-band. Its keys — and ONLY its keys — move to shard 1
  // (bounded movement is the ring property hash_ring_test pins; here it is
  // observed end to end).
  const wire::DrainReply reply = client.drain(kShardNames[0]);
  EXPECT_TRUE(reply.drained);
  for (const std::string& entity : entities) {
    EXPECT_EQ(router.shard_for(entity), kShardNames[1]) << entity;
  }

  // The mesh keeps serving every entity, still bitwise, still generation 0.
  for (std::size_t e = 0; e < entities.size(); ++e) {
    const ScoreResponse after = client.score(entity_request(e, false));
    EXPECT_EQ(after.generation, 0u);
    expect_identical_response(after, in_process.score(entity_request(e, false)),
                              /*compare_entity_index=*/true);
  }

  const wire::StatsSnapshot stats = client.stats();
  EXPECT_EQ(value_of(stats, "serve.router.shards"), 1u);
  EXPECT_EQ(value_of(stats,
                     std::string("serve.router.shard.") + kShardNames[0] + ".draining"),
            1u);

  // Draining the same shard again: no longer on the ring.
  EXPECT_FALSE(client.drain(kShardNames[0]).drained);

  router.stop();
  for (std::size_t s = 0; s < 2; ++s) {
    shards[s]->stop();
    std::filesystem::remove_all(roots[s]);
  }
}

TEST(ServeMesh, RefreshBroadcastReturnsMaxGenerationAndSetsShardGauges) {
  auto& fw = framework();
  const ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);

  // Frozen shards serving different generations: Refresh answers each
  // shard's own generation, and only the router's aggregate can tell them
  // apart.
  const std::uint64_t kGenerations[2] = {2, 5};
  std::vector<std::unique_ptr<Daemon>> shards;
  std::vector<std::filesystem::path> roots;
  RouterConfig router_config;
  for (std::size_t s = 0; s < 2; ++s) {
    roots.push_back(unique_path("go_mesh_refresh_s" + std::to_string(s), "_reg"));
    std::filesystem::remove_all(roots[s]);
    ServingModel shard_bundle = clone_serving_model(bundle);
    shard_bundle.generation = kGenerations[s];
    shards.push_back(std::make_unique<Daemon>(
        std::move(shard_bundle),
        shard_config(roots[s], common::Endpoint::tcp("127.0.0.1", 0))));
    shards[s]->start();
    router_config.backends.push_back({kShardNames[s], shards[s]->endpoint()});
  }
  router_config.listen = common::Endpoint::tcp("127.0.0.1", 0);
  router_config.vnodes = kVnodes;
  router_config.health_interval_ms = 0;  // no prober: only Refresh moves the gauges
  router_config.accept_poll_ms = 20;
  Router router(router_config);
  router.start();

  DaemonClient client(router.endpoint());
  const auto gauge = [&](std::size_t s) {
    return value_of(client.stats(),
                    std::string("serve.router.shard.") + kShardNames[s] + ".generation");
  };
  EXPECT_EQ(gauge(0), 0u);
  EXPECT_EQ(gauge(1), 0u);

  const wire::GenerationReply reply = client.refresh();
  EXPECT_FALSE(reply.flag);  // adaptive off: nothing is ever republished
  EXPECT_EQ(reply.generation, 5u);
  EXPECT_EQ(gauge(0), 2u);
  EXPECT_EQ(gauge(1), 5u);

  router.stop();
  for (std::size_t s = 0; s < 2; ++s) {
    shards[s]->stop();
    std::filesystem::remove_all(roots[s]);
  }
}

TEST(ServeMesh, RefreshRelaysTheShardsRebuildError) {
  auto& fw = framework();
  const ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);
  const std::vector<std::string> entities = bundle.entity_names;
  const MeshPlan plan = mesh_plan(entities);

  // Canary-mode shards FORCE a rebuild on Refresh, and this rebuilder
  // always throws: every shard answers Refresh with an Internal error.
  const AdaptiveController::BundleRebuilder exploding =
      [](const core::VulnerabilityClusters&, std::uint64_t) -> ServingModel {
    throw std::runtime_error("rebuilder exploded on purpose");
  };
  std::vector<std::unique_ptr<Daemon>> shards;
  std::vector<std::filesystem::path> roots;
  RouterConfig router_config;
  for (std::size_t s = 0; s < 2; ++s) {
    roots.push_back(unique_path("go_mesh_refresh_err_s" + std::to_string(s), "_reg"));
    std::filesystem::remove_all(roots[s]);
    DaemonConfig config = shard_config(roots[s], common::Endpoint::tcp("127.0.0.1", 0));
    config.adaptive_enabled = true;
    config.adaptive.canary = true;
    config.adaptive.auto_refresh = false;
    shards.push_back(std::make_unique<Daemon>(slice_serving_model(bundle, plan.members[s]),
                                              config, exploding));
    shards[s]->start();
    router_config.backends.push_back({kShardNames[s], shards[s]->endpoint()});
  }
  router_config.listen = common::Endpoint::tcp("127.0.0.1", 0);
  router_config.vnodes = kVnodes;
  router_config.accept_poll_ms = 20;
  Router router(router_config);
  router.start();

  // Every entity scored once: each shard's profiler has evidence for its
  // whole slice, so the forced rebuild really runs (and throws).
  DaemonClient client(router.endpoint());
  for (std::size_t e = 0; e < entities.size(); ++e) {
    (void)client.score(entity_request(e, false));
  }

  try {
    (void)client.refresh();
    FAIL() << "refresh must surface the shards' rebuild failure";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("internal"), std::string::npos) << what;
    EXPECT_NE(what.find("rebuilder exploded on purpose"), std::string::npos) << what;
    EXPECT_NE(what.find("shard '"), std::string::npos) << what;
  }
  for (const auto& shard : shards) EXPECT_EQ(shard->generation(), 0u);

  router.stop();
  for (std::size_t s = 0; s < 2; ++s) {
    shards[s]->stop();
    std::filesystem::remove_all(roots[s]);
  }
}

}  // namespace
}  // namespace goodones::serve
