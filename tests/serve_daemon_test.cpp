// End-to-end tests for the serving daemon over a REAL Unix-domain socket:
//
//   * IPC transparency: daemon verdicts are bitwise-identical to in-process
//     ScoringService verdicts for the same bundle generation (the wire
//     round-trips doubles bit-exactly).
//   * The refresh worker: a detector-retraining refresh triggered under
//     live load completes in the background while concurrent score round
//     trips stay under a pinned latency bound — retraining never runs on
//     the scoring path. Every verdict recorded across the hot swap replays
//     bitwise against the persisted bundle of the generation it names.
//   * Protocol robustness: malformed/truncated/oversized/foreign-version
//     frames produce typed Error frames, never a crash; the daemon keeps
//     serving other connections.
//   * Clean shutdown: a Shutdown frame drains connections, wait() returns,
//     the socket file is removed.
//   * Command lines: goodonesd, goodones_replay, goodones_router and
//     goodonesd_client reject a malformed value with exit status 2; the
//     client does so before it dials.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/socket.hpp"
#include "core/framework.hpp"
#include "nn/serialize.hpp"
#include "serve/daemon.hpp"

#include "serve_fixture.hpp"

namespace goodones::serve {
namespace {

using namespace std::chrono_literals;

using fixture::frame_header;
using fixture::unique_path;
using fixture::expect_identical_response;

core::RiskProfilingFramework& framework() {
  return fixture::mini_framework</*population_seed=*/23, /*seed=*/555>();
}

ScoreRequest entity_request(std::size_t entity, bool manipulated) {
  return fixture::entity_request(framework(), entity, manipulated, /*max_windows=*/4);
}

TEST(ServeDaemon, VerdictsBitwiseMatchInProcessService) {
  auto& fw = framework();
  ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);
  const ScoringService in_process(clone_serving_model(bundle), {.threads = 1});

  DaemonConfig config;
  const std::filesystem::path socket_path = unique_path("go_d_bitwise", ".sock");
  config.listen = common::Endpoint::unix_socket(socket_path);
  config.registry_root = unique_path("go_d_bitwise", "_reg");
  config.adaptive_enabled = false;  // frozen bundle: one generation to compare
  std::filesystem::remove_all(config.registry_root);
  Daemon daemon(std::move(bundle), config);
  daemon.start();

  const std::size_t n_entities = in_process.model()->entity_names.size();
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      DaemonClient client(socket_path);
      for (int iter = 0; iter < 8; ++iter) {
        for (std::size_t e = 0; e < n_entities; ++e) {
          const bool manipulated = (iter + t) % 2 == 0;
          const ScoreRequest request = entity_request(e, manipulated);
          const ScoreResponse over_wire = client.score(request);
          const ScoreResponse local = in_process.score(request);
          EXPECT_EQ(over_wire.generation, 0u);
          expect_identical_response(over_wire, local);
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  // Stats round trip reports the daemon counter family.
  DaemonClient admin(socket_path);
  const wire::StatsSnapshot stats = admin.stats();
  const auto value_of = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [key, value] : stats) {
      if (key == name) return value;
    }
    return 0;
  };
  EXPECT_GE(value_of("serve.daemon.connections"), 3u);
  EXPECT_GE(value_of("serve.daemon.scores"), 3u * 8u * n_entities);
  EXPECT_EQ(value_of("serve.daemon.generation"), 0u);

  admin.shutdown();
  daemon.wait();
  EXPECT_FALSE(daemon.running());
  EXPECT_FALSE(std::filesystem::exists(socket_path));
  std::filesystem::remove_all(config.registry_root);
}

TEST(ServeDaemon, RetrainingRefreshOnWorkerNeverBlocksScores) {
  auto& fw = framework();
  ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);
  const std::vector<Cluster> gen0_routing = bundle.entity_cluster;
  const std::size_t n_entities = bundle.entity_names.size();
  RegistryKey base_key = registry_key(fw, detect::DetectorKind::kKnn);

  // The rebuild is made ARTIFICIALLY slow (real detector retraining plus
  // kRebuildFloor, see the rebuilder below) so a refresh that leaked onto
  // the scoring path would stall a request past the floor. De-flake
  // strategy (generous multiplier): the bound only has to separate
  // "rebuild leaked inline" (>= kRebuildFloor = 2400ms) from "score served
  // from the hot snapshot" (single-digit ms typically). Pinning the bound
  // at HALF the floor keeps the regression detectable while leaving ~1.2s
  // of headroom for CI scheduler noise — the old 400ms bound sat close
  // enough to a loaded runner's tail to flake.
  constexpr auto kRebuildFloor = 2400ms;
  constexpr auto kLatencyBound = kRebuildFloor / 2;

  DaemonConfig config;
  const std::filesystem::path socket_path = unique_path("go_d_refresh", ".sock");
  config.listen = common::Endpoint::unix_socket(socket_path);
  config.registry_root = unique_path("go_d_refresh", "_reg");
  std::filesystem::remove_all(config.registry_root);
  config.adaptive.profiler.decay = 0.6;
  config.adaptive.profiler.hysteresis = 0.05;
  config.adaptive.reassess_every_windows = 32;
  Daemon daemon(
      std::move(bundle), config,
      [&](const core::VulnerabilityClusters& partition, std::uint64_t generation) {
        std::this_thread::sleep_for(kRebuildFloor);
        return build_serving_model(fw, detect::DetectorKind::kKnn, partition, generation);
      });
  daemon.start();

  // Prebuilt traffic (no framework access from client threads): evasion
  // pressure on exactly the entities the offline pipeline trusted.
  std::vector<ScoreRequest> pressured;
  for (std::size_t e = 0; e < n_entities; ++e) {
    pressured.push_back(
        entity_request(e, gen0_routing[e] == Cluster::kLessVulnerable));
  }

  struct Recorded {
    ScoreRequest request;
    ScoreResponse response;
  };
  std::mutex recorded_mutex;
  std::vector<Recorded> recorded;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> max_latency_us{0};

  const auto drive = [&] {
    DaemonClient client(socket_path);
    std::vector<Recorded> local;
    while (!stop.load()) {
      for (const ScoreRequest& request : pressured) {
        const auto start = std::chrono::steady_clock::now();
        const ScoreResponse response = client.score(request);
        const auto elapsed_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
        std::int64_t seen = max_latency_us.load();
        while (elapsed_us > seen && !max_latency_us.compare_exchange_weak(seen, elapsed_us)) {
        }
        local.push_back({request, response});
      }
    }
    const std::lock_guard<std::mutex> lock(recorded_mutex);
    recorded.insert(recorded.end(), std::make_move_iterator(local.begin()),
                    std::make_move_iterator(local.end()));
  };

  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) clients.emplace_back(drive);

  // Wait (bounded) for the background refresh to publish, then keep traffic
  // flowing a little longer so the new generation also serves requests.
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (daemon.generation() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  std::this_thread::sleep_for(100ms);
  stop.store(true);
  for (auto& client : clients) client.join();
  daemon.controller()->drain();

  ASSERT_GE(daemon.generation(), 1u) << "pressure must force a retraining refresh";
  ASSERT_GE(daemon.controller()->refreshes(), 1u);

  // The pinned bound: every score round trip (including the ones taken
  // WHILE the worker was retraining for >= kRebuildFloor) stayed far below
  // the rebuild cost. Inline retraining on the scoring path would have
  // stalled at least one request past the floor.
  EXPECT_LT(max_latency_us.load(), std::chrono::duration_cast<std::chrono::microseconds>(
                                       kLatencyBound)
                                       .count())
      << "a score round trip stalled on the refresh";

  // Provenance: every recorded verdict replays bitwise against the
  // persisted bundle of exactly the generation it names.
  std::set<std::uint64_t> generations;
  for (const auto& record : recorded) generations.insert(record.response.generation);
  EXPECT_GE(generations.size(), 2u) << "traffic must span the hot swap";
  for (const std::uint64_t generation : generations) {
    RegistryKey key = base_key;
    key.generation = generation;
    ASSERT_TRUE(daemon.registry().contains(key)) << "generation " << generation;
    const ScoringService pinned(daemon.registry().load(key), {.threads = 1});
    std::size_t replayed = 0;
    for (const auto& record : recorded) {
      if (record.response.generation != generation) continue;
      if (++replayed > 8) break;  // a sample per generation keeps the test fast
      expect_identical_response(record.response, pinned.score(record.request));
    }
    EXPECT_GE(replayed, 1u);
  }

  daemon.stop();
  std::filesystem::remove_all(config.registry_root);
}

TEST(ServeDaemon, MalformedFramesGetTypedErrorFramesNeverACrash) {
  auto& fw = framework();
  DaemonConfig config;
  const std::filesystem::path socket_path = unique_path("go_d_malformed", ".sock");
  config.listen = common::Endpoint::unix_socket(socket_path);
  config.registry_root = unique_path("go_d_malformed", "_reg");
  config.adaptive_enabled = false;
  std::filesystem::remove_all(config.registry_root);
  Daemon daemon(build_serving_model(fw, detect::DetectorKind::kKnn), config);
  daemon.start();

  const auto read_error = [](common::Socket& socket) {
    const auto frame = wire::recv_frame(socket);
    if (!frame.has_value()) ADD_FAILURE() << "expected an error frame, got EOF";
    EXPECT_EQ(frame->type, wire::MessageType::kError);
    return wire::decode_error(frame->payload);
  };

  {  // Garbage magic: typed error, connection closed.
    common::Socket raw = common::connect_unix(socket_path);
    raw.write_all("XXXXXXXXXXXXXXXXXXXX", 20);
    EXPECT_EQ(read_error(raw).code, wire::ErrorCode::kMalformedFrame);
    char byte;
    EXPECT_EQ(raw.read_exact(&byte, 1), common::Socket::ReadResult::kClosed);
  }
  {  // Foreign protocol version: its own error code, connection closed.
    common::Socket raw = common::connect_unix(socket_path);
    const std::string bytes = frame_header(wire::kMagic, 99, 1, 0);
    raw.write_all(bytes.data(), bytes.size());
    EXPECT_EQ(read_error(raw).code, wire::ErrorCode::kUnsupportedVersion);
    char byte;
    EXPECT_EQ(raw.read_exact(&byte, 1), common::Socket::ReadResult::kClosed);
  }
  {  // Absurd payload length: rejected before any allocation.
    common::Socket raw = common::connect_unix(socket_path);
    const std::string bytes = frame_header(wire::kMagic, wire::kVersion, 1, 1ull << 40);
    raw.write_all(bytes.data(), bytes.size());
    EXPECT_EQ(read_error(raw).code, wire::ErrorCode::kMalformedFrame);
  }
  {  // Well-framed but undecodable Score payload: typed error, connection
     // SURVIVES (frame boundaries are intact) and serves the next request.
    common::Socket raw = common::connect_unix(socket_path);
    const std::string junk = "\xff\xff\xff\xff";
    const std::string bytes = frame_header(wire::kMagic, wire::kVersion, 1, junk.size());
    raw.write_all(bytes.data(), bytes.size());
    raw.write_all(junk.data(), junk.size());
    EXPECT_EQ(read_error(raw).code, wire::ErrorCode::kMalformedFrame);
    wire::send_frame(raw, wire::MessageType::kStats, {});
    const auto stats = wire::recv_frame(raw);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->type, wire::MessageType::kStatsReply);
  }
  {  // Unknown-but-well-framed message type: the forward-compatibility
     // rule — bad-request, connection SURVIVES (a future client must not
     // read as corruption).
    common::Socket raw = common::connect_unix(socket_path);
    const std::string bytes = frame_header(wire::kMagic, wire::kVersion, 1234, 0);
    raw.write_all(bytes.data(), bytes.size());
    EXPECT_EQ(read_error(raw).code, wire::ErrorCode::kBadRequest);
    wire::send_frame(raw, wire::MessageType::kStats, {});
    const auto stats = wire::recv_frame(raw);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->type, wire::MessageType::kStatsReply);
  }
  {  // A tiny Score payload claiming 2^61 windows: the typed error frame,
     // not std::length_error/bad_alloc — and the connection survives.
    common::Socket raw = common::connect_unix(socket_path);
    std::ostringstream payload;
    nn::write_string(payload, "SA_0");
    nn::write_u64(payload, 1ull << 61);
    const std::string body = std::move(payload).str();
    const std::string bytes =
        frame_header(wire::kMagic, wire::kVersion,
                     static_cast<std::uint32_t>(wire::MessageType::kScore), body.size());
    raw.write_all(bytes.data(), bytes.size());
    raw.write_all(body.data(), body.size());
    EXPECT_EQ(read_error(raw).code, wire::ErrorCode::kMalformedFrame);
    wire::send_frame(raw, wire::MessageType::kStats, {});
    const auto stats = wire::recv_frame(raw);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->type, wire::MessageType::kStatsReply);
  }
  {  // Truncated payload (peer dies mid-frame): daemon must not crash.
    common::Socket raw = common::connect_unix(socket_path);
    const std::string bytes = frame_header(wire::kMagic, wire::kVersion, 1, 1024);
    raw.write_all(bytes.data(), bytes.size());
    raw.write_all("partial", 7);
    raw.close();
  }

  // Unknown entity: a BadRequest error frame typed through the client, and
  // the SAME connection keeps scoring.
  DaemonClient client(socket_path);
  ScoreRequest bogus;
  bogus.entity = "NO_SUCH_ENTITY";
  bogus.windows.push_back({nn::Matrix(4, fw.domain().spec().num_channels), {}});
  EXPECT_THROW((void)client.score(bogus), common::PreconditionError);
  const ScoreResponse good = client.score(entity_request(0, false));
  EXPECT_FALSE(good.windows.empty());

  daemon.stop();
  std::filesystem::remove_all(config.registry_root);
}

TEST(ServeDaemon, UnknownGenerationPromoteIsTypedBadRequestAndServingContinues) {
  auto& fw = framework();
  DaemonConfig config;
  const std::filesystem::path socket_path = unique_path("go_d_promote", ".sock");
  config.listen = common::Endpoint::unix_socket(socket_path);
  config.registry_root = unique_path("go_d_promote", "_reg");
  config.adaptive_enabled = false;  // no canary staged, ever
  std::filesystem::remove_all(config.registry_root);
  Daemon daemon(build_serving_model(fw, detect::DetectorKind::kKnn), config);
  daemon.start();

  DaemonClient client(socket_path);
  // No candidate staged: the bare form and an unknown generation are both
  // typed BadRequest (PreconditionError through the client), never a crash.
  EXPECT_THROW((void)client.promote(), common::PreconditionError);
  EXPECT_THROW((void)client.promote(424242), common::PreconditionError);
  EXPECT_THROW((void)client.rollback(), common::PreconditionError);
  // The retry-safe form answers applied=false instead of erroring: a
  // rollback naming an explicit generation is a no-op when the candidate is
  // already gone (the duplicate-promote half lives in serve_canary_test,
  // where a promote actually lands first).
  const wire::GenerationReply gone = client.rollback(424242);
  EXPECT_FALSE(gone.flag);
  EXPECT_EQ(gone.generation, daemon.generation());

  // The SAME connection keeps scoring after every refusal.
  const ScoreResponse good = client.score(entity_request(0, false));
  EXPECT_FALSE(good.windows.empty());

  daemon.stop();
  std::filesystem::remove_all(config.registry_root);
}

TEST(ServeDaemon, CleanShutdownDrainsConnections) {
  auto& fw = framework();
  DaemonConfig config;
  const std::filesystem::path socket_path = unique_path("go_d_shutdown", ".sock");
  config.listen = common::Endpoint::unix_socket(socket_path);
  config.registry_root = unique_path("go_d_shutdown", "_reg");
  config.adaptive_enabled = false;
  std::filesystem::remove_all(config.registry_root);
  Daemon daemon(build_serving_model(fw, detect::DetectorKind::kKnn), config);
  daemon.start();

  // An idle connection (no in-flight request) and a busy one, both
  // connected before the shutdown: a busy client that only connected on its
  // own thread could lose the race to the shutdown below and throw from its
  // constructor, outside the loop's try.
  DaemonClient idle(socket_path);
  DaemonClient client(socket_path);
  std::atomic<bool> busy_done{false};
  std::thread busy([&] {
    // In-flight work completes even when the shutdown lands mid-request.
    for (int i = 0; i < 20; ++i) {
      try {
        const ScoreResponse response = client.score(entity_request(0, false));
        EXPECT_FALSE(response.windows.empty());
      } catch (const std::exception&) {
        break;  // daemon drained and closed between requests — clean end
      }
    }
    busy_done.store(true);
  });

  DaemonClient admin(socket_path);
  admin.shutdown();  // returns only after the daemon acknowledged
  daemon.wait();     // drains: joins every connection handler

  EXPECT_FALSE(daemon.running());
  EXPECT_FALSE(std::filesystem::exists(socket_path));
  EXPECT_THROW((void)DaemonClient(socket_path), common::SocketError);

  busy.join();
  EXPECT_TRUE(busy_done.load()) << "the busy client must have ended cleanly";
  std::filesystem::remove_all(config.registry_root);
}

#ifdef GOODONES_CLIENT_BIN
TEST(ServeDaemon, CliClientScoresACsvAndPrintsGeneration) {
  auto& fw = framework();
  DaemonConfig config;
  const std::filesystem::path socket_path = unique_path("go_d_cli", ".sock");
  config.listen = common::Endpoint::unix_socket(socket_path);
  config.registry_root = unique_path("go_d_cli", "_reg");
  config.adaptive_enabled = false;
  std::filesystem::remove_all(config.registry_root);
  Daemon daemon(build_serving_model(fw, detect::DetectorKind::kKnn), config);
  daemon.start();

  // One real held-out window as the CSV the quickstart describes.
  const ScoreRequest request = entity_request(0, false);
  const nn::Matrix& features = request.windows.front().features;
  std::vector<std::string> header{"window"};
  for (std::size_t c = 0; c < features.cols(); ++c) {
    header.push_back("ch" + std::to_string(c));
  }
  common::CsvTable csv(header);
  for (std::size_t t = 0; t < features.rows(); ++t) {
    std::vector<std::string> row{"0"};
    for (std::size_t c = 0; c < features.cols(); ++c) {
      std::ostringstream value;
      value.precision(17);
      value << features(t, c);
      row.push_back(value.str());
    }
    csv.add_row(std::move(row));
  }
  const auto csv_path = unique_path("go_d_cli", ".csv");
  const auto out_path = unique_path("go_d_cli", ".out");
  csv.write(csv_path);

  const std::string command = std::string(GOODONES_CLIENT_BIN) + " " +
                              socket_path.string() + " score " + request.entity +
                              " " + csv_path.string() + " > " + out_path.string();
  ASSERT_EQ(std::system(command.c_str()), 0);

  std::ifstream out(out_path);
  std::stringstream captured;
  captured << out.rdbuf();
  const std::string text = captured.str();
  EXPECT_NE(text.find("generation 0"), std::string::npos) << text;
  EXPECT_NE(text.find("window 0"), std::string::npos) << text;

  daemon.stop();
  std::filesystem::remove(csv_path);
  std::filesystem::remove(out_path);
  std::filesystem::remove_all(config.registry_root);
}

TEST(ServeDaemon, CliClientExitsTwoOnAMalformedValueBeforeDialing) {
  // Nothing listens on this path. The client parses every argument before
  // dialing, so each malformed value is a usage error that names it, not a
  // connect failure.
  const std::string client = std::string(GOODONES_CLIENT_BIN) + " " +
                             unique_path("go_d_cli_arg", ".sock").string();
  const std::filesystem::path err_path = unique_path("go_d_cli_arg", ".err");
  const std::pair<std::string, std::string> runs[] = {
      {"--regime", " score SA_0 windows.csv --regime 2"},
      {"COUNT", " score-latest SA_0 abc"},
      {"--seq-len", " score-latest SA_0 --seq-len abc"},
      {"GENERATION", " promote x"},
  };
  for (const auto& [argument, args] : runs) {
    const int status = std::system((client + args + " 2> " + err_path.string()).c_str());
    ASSERT_TRUE(WIFEXITED(status)) << args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args;
    std::ifstream err(err_path);
    std::stringstream text;
    text << err.rdbuf();
    EXPECT_NE(text.str().find("goodonesd_client: " + argument + ": "), std::string::npos)
        << args << ": " << text.str();
  }
  std::filesystem::remove(err_path);
}
#endif  // GOODONES_CLIENT_BIN

#if defined(GOODONESD_BIN) && defined(GOODONES_REPLAY_BIN) && defined(GOODONES_ROUTER_BIN)
TEST(ServeDaemon, ToolsExitTwoOnAMalformedFlagValue) {
  // Every tool parses each flag whole before doing any work, so a malformed
  // number (a prefix of digits, a sign, NaN, more than the type holds) must
  // end as a usage error that names the flag. Apart from the first two,
  // each command line also lacks what the tool needs to start (an endpoint,
  // a record/replay command, a backend): a tool that accepted the bad value
  // stops at its usage check without the flag's name, and does no work.
  const std::filesystem::path err_path = unique_path("go_d_flag", ".err");
  const std::string daemon = GOODONESD_BIN;
  const std::string replay = GOODONES_REPLAY_BIN;
  const std::string router = GOODONES_ROUTER_BIN;
  const std::string store = " --store " + unique_path("go_d_flag", "_store").string();
  struct Run {
    std::string tool;
    std::string flag;
    std::string command;
  };
  const Run runs[] = {
      {"goodonesd", "--entities",
       daemon + " --socket " + unique_path("go_d_flag", ".sock").string() + " --entities abc"},
      {"goodones_replay", "--entities", replay + " replay" + store + " --entities abc"},
      {"goodonesd", "--entities", daemon + " --entities 12abc"},
      {"goodonesd", "--threads", daemon + " --threads -1"},
      {"goodonesd", "--canary-max-flag-delta", daemon + " --canary-max-flag-delta nan"},
      {"goodonesd", "--canary-sample-ppm", daemon + " --canary-sample-ppm 4294967297"},
      {"goodones_replay", "--entities", replay + " check" + store + " --entities -1"},
      {"goodones_replay", "--stride", replay + " check" + store + " --stride 12abc"},
      {"goodones_router", "--vnodes", router + " --vnodes 12abc"},
      {"goodones_router", "--health-interval", router + " --health-interval -5"},
      {"goodones_router", "--pool", router + " --pool -1"},
  };
  for (const Run& run : runs) {
    const int status = std::system((run.command + " 2> " + err_path.string()).c_str());
    ASSERT_TRUE(WIFEXITED(status)) << run.command;
    EXPECT_EQ(WEXITSTATUS(status), 2) << run.command;
    std::ifstream err(err_path);
    std::stringstream text;
    text << err.rdbuf();
    EXPECT_NE(text.str().find(run.tool + ": " + run.flag + ": "), std::string::npos)
        << run.command << ": " << text.str();
  }
  std::filesystem::remove(err_path);
}
#endif  // GOODONESD_BIN && GOODONES_REPLAY_BIN && GOODONES_ROUTER_BIN

}  // namespace
}  // namespace goodones::serve
