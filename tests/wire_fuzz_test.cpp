// Protocol fuzz for the wire layer — the acceptance gate behind the
// FrameServer error-containment contract, driven at BOTH transports:
//
//   * A seeded corpus of VALID frames (Score with real windows, Stats,
//     Health, Refresh, Drain, unknown types) is mutated byte-wise —
//     bit flips, truncation, random extension, and deliberate lies in the
//     length field — and thrown at a LIVE daemon over a Unix-domain and a
//     TCP listener. The server may answer with typed Error frames, answer
//     normally (some mutations stay valid), or close the connection; it
//     must never crash, never emit a malformed frame of its own, and never
//     wedge (the test side reads with a receive timeout; the daemon must
//     still serve a clean round trip after the whole barrage).
//   * The payload codecs are fuzzed directly: a mutated payload may decode
//     (mutation hit don't-care bytes) or throw the typed
//     common::SerializationError — anything else (length_error, bad_alloc,
//     a crash) fails the suite.
//
// Mutations are generated from a fixed splitmix64 seed: every CI run and
// every local repro fuzzes the exact same byte streams. The suite runs in
// the sanitizer lane (ASan+UBSan) in CI, where "no crash" also means no
// heap overflow and no UB on any of these paths.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/socket.hpp"
#include "core/framework.hpp"
#include "data/window.hpp"
#include "serve/daemon.hpp"

#include "serve_fixture.hpp"

namespace goodones::serve {
namespace {

using fixture::frame_bytes;
using fixture::unique_path;

core::RiskProfilingFramework& framework() {
  return fixture::mini_framework</*population_seed=*/23, /*seed=*/555>();
}


/// A real Score request against the served bundle (mutations of this one
/// exercise the deepest decode path: strings, u64 counts, matrices).
ScoreRequest real_request() {
  return fixture::entity_request(framework(), 0, /*manipulated=*/false, /*max_windows=*/2);
}

/// The seeded corpus of well-formed frames the mutator starts from.
std::vector<std::string> build_corpus() {
  std::vector<std::string> corpus;
  corpus.push_back(frame_bytes(wire::MessageType::kScore,
                               wire::encode_score_request(real_request())));
  corpus.push_back(frame_bytes(wire::MessageType::kStats, {}));
  corpus.push_back(frame_bytes(wire::MessageType::kHealth, {}));
  corpus.push_back(frame_bytes(wire::MessageType::kRefresh, {}));
  wire::DrainRequest drain;
  drain.shard = "shard-a";
  corpus.push_back(
      frame_bytes(wire::MessageType::kDrain, wire::encode_drain_request(drain)));
  corpus.push_back(
      frame_bytes(wire::MessageType::kPromote, wire::encode_generation_request({7})));
  // Bare form: whatever is staged.
  corpus.push_back(
      frame_bytes(wire::MessageType::kRollback, wire::encode_generation_request({0})));
  // A reply type a client should never send, and a type far outside the enum.
  corpus.push_back(frame_bytes(wire::MessageType::kScoreReply, "unexpected"));
  corpus.push_back(frame_bytes(static_cast<wire::MessageType>(0x7eadbeef), "future"));
  return corpus;
}

/// One deterministic mutation of `original` (never returns it unchanged).
std::string mutate(const std::string& original, std::uint64_t& rng) {
  std::string bytes = original;
  switch (common::splitmix64_next(rng) % 4) {
    case 0: {  // flip 1..8 random bytes
      const std::size_t flips = 1 + common::splitmix64_next(rng) % 8;
      for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
        const std::size_t at = common::splitmix64_next(rng) % bytes.size();
        bytes[at] = static_cast<char>(bytes[at] ^
                                      (1u << (common::splitmix64_next(rng) % 8)));
      }
      break;
    }
    case 1: {  // truncate (possibly mid-header, possibly mid-payload)
      const std::size_t keep = common::splitmix64_next(rng) % bytes.size();
      bytes.resize(keep);
      break;
    }
    case 2: {  // extend with random garbage
      const std::size_t extra = 1 + common::splitmix64_next(rng) % 64;
      for (std::size_t e = 0; e < extra; ++e) {
        bytes.push_back(static_cast<char>(common::splitmix64_next(rng) & 0xff));
      }
      break;
    }
    default: {  // lie in the length field (small lie, huge lie, zero)
      std::uint64_t lie = 0;
      switch (common::splitmix64_next(rng) % 3) {
        case 0: lie = common::splitmix64_next(rng) % 4096; break;
        case 1: lie = common::splitmix64_next(rng); break;  // absurd
        default: lie = 0; break;
      }
      if (bytes.size() >= 20) std::memcpy(bytes.data() + 12, &lie, 8);
      break;
    }
  }
  if (bytes == original) bytes.push_back('\0');  // guarantee a real mutation
  return bytes;
}

/// Sends one mutated byte stream and drains the server's answer. The ONLY
/// acceptable outcomes: well-formed reply frames (typed Error included),
/// a clean close, a transport reset, or the server waiting for more bytes
/// (our receive timeout fires; the close that follows unblocks it).
void drive_mutation(const common::Endpoint& endpoint, const std::string& bytes) {
  common::Socket socket = common::connect_endpoint(endpoint);
  // Backstop only: the write half-close below means a healthy server
  // always answers or closes promptly; hitting this timeout IS the wedge
  // the suite exists to catch.
  socket.set_recv_timeout_ms(2000);
  try {
    socket.write_all(bytes.data(), bytes.size());
  } catch (const common::SocketError&) {
    return;  // server already closed on us mid-write — a clean rejection
  }
  // Half-close: a server mid-frame (truncation/length lie) observes EOF
  // NOW instead of waiting out a timeout, so the whole barrage stays fast.
  socket.shutdown_write();
  try {
    for (int frames = 0; frames < 4; ++frames) {
      // recv_frame validates the SERVER's framing: a malformed reply frame
      // throws SerializationError here and fails the test below.
      const std::optional<wire::Frame> reply = wire::recv_frame(socket);
      if (!reply.has_value()) return;  // clean close
    }
  } catch (const common::SocketError& error) {
    // A reset is a legal close (our junk may still sit unread in the
    // server's buffer when it closes). A receive TIMEOUT is not: after the
    // half-close the server has everything it will ever get — silence
    // means a wedged handler.
    if (std::string_view(error.what()).find("timed out") != std::string_view::npos) {
      ADD_FAILURE() << "server went silent on a mutated stream: " << error.what();
    }
  } catch (const common::SerializationError& error) {
    ADD_FAILURE() << "server emitted a malformed frame: " << error.what();
  }
}

void fuzz_transport(const common::Endpoint& endpoint, std::uint64_t seed) {
  const std::vector<std::string> corpus = build_corpus();
  std::uint64_t rng = seed;
  for (const std::string& original : corpus) {
    for (int round = 0; round < 40; ++round) {
      drive_mutation(endpoint, mutate(original, rng));
    }
  }
  // Multi-frame streams: a valid frame, junk after it on the same
  // connection — the first must be answered before the junk kills the
  // stream.
  for (int round = 0; round < 10; ++round) {
    const std::string valid = frame_bytes(wire::MessageType::kStats, {});
    drive_mutation(endpoint, valid + mutate(corpus[round % corpus.size()], rng));
  }
}

TEST(WireFuzz, MutatedFramesNeverCrashOrWedgeEitherTransport) {
  auto& fw = framework();
  ServingModel bundle = build_serving_model(fw, detect::DetectorKind::kKnn);

  DaemonConfig unix_config;
  unix_config.listen = common::Endpoint::unix_socket(unique_path("go_fuzz", ".sock"));
  unix_config.registry_root = unique_path("go_fuzz", "_reg");
  unix_config.adaptive_enabled = false;
  // Finished connections close at the accept loop's reap tick; hundreds of
  // short-lived fuzz connections wait on it, so poll fast.
  unix_config.accept_poll_ms = 5;
  std::filesystem::remove_all(unix_config.registry_root);
  Daemon unix_daemon(clone_serving_model(bundle), unix_config);
  unix_daemon.start();

  DaemonConfig tcp_config;
  tcp_config.listen = common::Endpoint::tcp("127.0.0.1", 0);
  tcp_config.registry_root = unix_config.registry_root;
  tcp_config.adaptive_enabled = false;
  tcp_config.accept_poll_ms = 5;
  Daemon tcp_daemon(std::move(bundle), tcp_config);
  tcp_daemon.start();

  fuzz_transport(unix_daemon.endpoint(), /*seed=*/0x600d0e5f);
  fuzz_transport(tcp_daemon.endpoint(), /*seed=*/0x600d0e5f ^ 0x7c9);

  // The survival gate: after the barrage both daemons still serve clean
  // round trips — no crash, no wedged accept loop, no leaked-broken state.
  for (Daemon* daemon : {&unix_daemon, &tcp_daemon}) {
    EXPECT_TRUE(daemon->running());
    DaemonClient client(daemon->endpoint());
    const ScoreResponse response = client.score(real_request());
    EXPECT_FALSE(response.windows.empty());
    EXPECT_FALSE(client.stats().empty());
  }

  unix_daemon.stop();
  tcp_daemon.stop();
  std::filesystem::remove_all(unix_config.registry_root);
}

TEST(WireFuzz, PayloadCodecsThrowOnlyTypedErrors) {
  const ScoreRequest request = real_request();
  ScoreResponse response;
  response.entity_index = 0;
  response.cluster = Cluster::kLessVulnerable;
  response.generation = 3;
  response.windows.push_back(
      {1.0, 2.0, data::StateLabel::kHigh, data::StateLabel::kNormal, 0.5, true, 0.25});

  wire::StatsSnapshot stats{{"serve.daemon.scores", 41}, {"serve.router.shards", 2}};
  wire::GenerationReply generation_reply{true, 7};
  wire::ErrorFrame error{wire::ErrorCode::kUnavailable, "shard down"};
  wire::DrainRequest drain_request{"shard-b"};
  wire::DrainReply drain_reply{true, "drained"};
  wire::IngestRequest ingest_request;
  ingest_request.entity = request.entity;
  ingest_request.ticks = nn::Matrix(5, request.windows.front().features.cols());
  for (std::size_t t = 0; t < 5; ++t) {
    for (std::size_t c = 0; c < ingest_request.ticks.cols(); ++c) {
      ingest_request.ticks(t, c) = request.windows.front().features(0, c) + t;
    }
  }
  ingest_request.regimes.assign(5, data::Regime::kActive);
  wire::IngestReply ingest_reply{5, 25};
  wire::ScoreLatestRequest latest_request{request.entity, 3, 12};
  wire::GenerationRequest generation_request{11};

  struct Case {
    std::string name;
    std::string payload;
    std::function<void(const std::string&)> decode;
  };
  const std::vector<Case> cases = {
      {"score_request", wire::encode_score_request(request),
       [](const std::string& p) { (void)wire::decode_score_request(p); }},
      {"score_response", wire::encode_score_response(response),
       [](const std::string& p) { (void)wire::decode_score_response(p); }},
      {"stats", wire::encode_stats(stats),
       [](const std::string& p) { (void)wire::decode_stats(p); }},
      {"generation_reply", wire::encode_generation_reply(generation_reply),
       [](const std::string& p) { (void)wire::decode_generation_reply(p); }},
      {"generation_request", wire::encode_generation_request(generation_request),
       [](const std::string& p) { (void)wire::decode_generation_request(p); }},
      {"error", wire::encode_error(error),
       [](const std::string& p) { (void)wire::decode_error(p); }},
      {"drain_request", wire::encode_drain_request(drain_request),
       [](const std::string& p) { (void)wire::decode_drain_request(p); }},
      {"drain_reply", wire::encode_drain_reply(drain_reply),
       [](const std::string& p) { (void)wire::decode_drain_reply(p); }},
      {"ingest_request", wire::encode_ingest_request(ingest_request),
       [](const std::string& p) { (void)wire::decode_ingest_request(p); }},
      {"ingest_reply", wire::encode_ingest_reply(ingest_reply),
       [](const std::string& p) { (void)wire::decode_ingest_reply(p); }},
      {"score_latest_request", wire::encode_score_latest_request(latest_request),
       [](const std::string& p) { (void)wire::decode_score_latest_request(p); }},
      {"peek_score_entity", wire::encode_score_request(request),
       [](const std::string& p) { (void)wire::peek_score_entity(p); }},
      {"peek_ingest_entity", wire::encode_ingest_request(ingest_request),
       [](const std::string& p) { (void)wire::peek_score_entity(p); }},
      {"peek_score_latest_entity", wire::encode_score_latest_request(latest_request),
       [](const std::string& p) { (void)wire::peek_score_entity(p); }},
  };

  std::uint64_t rng = 0xfeedc0de;
  for (const Case& codec : cases) {
    // Round-trip sanity first: the unmutated payload must decode.
    ASSERT_NO_THROW(codec.decode(codec.payload)) << codec.name;
    for (int round = 0; round < 300; ++round) {
      const std::string mutated = mutate(codec.payload, rng);
      try {
        codec.decode(mutated);  // decoding fine means the mutation was benign
      } catch (const common::SerializationError&) {
        // the typed rejection — the only acceptable throw
      } catch (const std::exception& other) {
        ADD_FAILURE() << codec.name << " threw " << other.what()
                      << " instead of SerializationError";
      }
    }
  }
}

TEST(WireFuzz, GenerationPayloadBytesArePinned) {
  // The Refresh/Health/Promote/Rollback replies are a u32 flag then a u64
  // generation, the Promote/Rollback requests a lone u64 generation, all
  // little-endian. Hand-written bytes, so a layout change cannot slip
  // through as a self-consistent encode/decode pair.
  const std::string generation_bytes("\x08\x07\x06\x05\x04\x03\x02\x01", 8);
  const std::uint64_t generation = 0x0102030405060708ULL;
  const std::string set_reply = std::string("\x01\x00\x00\x00", 4) + generation_bytes;
  const std::string clear_reply = std::string(4, '\0') + generation_bytes;

  // Refresh (refreshed), Health (draining), Promote and Rollback (applied)
  // replies, then the Promote and Rollback requests.
  EXPECT_EQ(wire::encode_generation_reply({true, generation}), set_reply);
  EXPECT_EQ(wire::encode_generation_reply({false, generation}), clear_reply);
  EXPECT_EQ(wire::encode_generation_request({generation}), generation_bytes);

  EXPECT_TRUE(wire::decode_generation_reply(set_reply).flag);
  EXPECT_FALSE(wire::decode_generation_reply(clear_reply).flag);
  EXPECT_EQ(wire::decode_generation_reply(set_reply).generation, generation);
  EXPECT_EQ(wire::decode_generation_request(generation_bytes).generation, generation);
  // The flag is a strict 0/1; 12 bytes exactly.
  EXPECT_THROW((void)wire::decode_generation_reply(std::string("\x02\x00\x00\x00", 4) +
                                                   generation_bytes),
               common::SerializationError);
  EXPECT_THROW((void)wire::decode_generation_reply(clear_reply + '\0'),
               common::SerializationError);
}

}  // namespace
}  // namespace goodones::serve
