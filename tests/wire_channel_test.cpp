// Unit tests for the client half of the mesh's fault model: wire::FrameChannel
// against a scripted Unix-socket peer. Each accepted connection plays one
// scripted act (answer, hang up mid-header or mid-payload, close before
// answering, answer garbage), so every retry rule of roundtrip() is driven
// directly, without a daemon:
//
//   * a reply cut short by a dying server is replayed once on a fresh
//     connection, exactly like a clean close before the reply;
//   * a verb the verb table marks unreplayable (Drain) and reconnect =
//     false each surface SocketError after a single dial;
//   * an Error frame is a reply, never retried;
//   * a reply with a bad header, or a whole reply of another verb,
//     propagates as SerializationError and the channel drops the socket.
//
// The verb table itself and the ScoreLatest row cap (count × seq_len) are
// pinned here too.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/socket.hpp"
#include "serve/wire.hpp"

#include "serve_fixture.hpp"

namespace goodones::serve::wire {
namespace {

enum class Act {
  kReply,             ///< answer the request with a whole HealthReply
  kReplyError,        ///< answer with an Error frame
  kTornHeader,        ///< send 10 of the reply's 20 header bytes, hang up
  kTornPayload,       ///< send the header and part of the payload, hang up
  kCloseBeforeReply,  ///< read the request, hang up without a byte
  kBadMagic,          ///< answer with a whole frame whose magic is wrong
};

using fixture::frame_bytes;

/// The reply a kReply act sends: generation 42, flag clear.
std::string health_reply() {
  GenerationReply reply;
  reply.generation = 42;
  return frame_bytes(MessageType::kHealthReply, encode_generation_reply(reply));
}

/// A Unix-socket server that plays `script`, one act per accepted
/// connection, then closes any further connection at once (still counting
/// it as a dial, so an unexpected redial fails the test instead of hanging).
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::vector<Act> script)
      : listener_(fixture::unique_path("go_wire_channel", ".sock")),
        thread_([this, script = std::move(script)] { run(script); }) {}

  ~ScriptedPeer() {
    stop_.store(true);
    thread_.join();
  }

  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  const common::Endpoint& endpoint() const noexcept { return listener_.endpoint(); }
  std::size_t dials() const noexcept { return dials_.load(); }

 private:
  void run(const std::vector<Act>& script) {
    std::size_t next = 0;
    while (!stop_.load()) {
      common::Socket socket = listener_.accept(/*timeout_ms=*/20);
      if (!socket.valid()) continue;
      dials_.fetch_add(1);
      if (next == script.size()) continue;  // unscripted dial: hang up
      const Act act = script[next++];
      try {
        if (recv_frame(socket)) play(act, socket);
      } catch (const std::exception&) {
        // The client hung up first; its own assertions report that.
      }
    }
  }

  static void play(Act act, common::Socket& socket) {
    const std::string reply = health_reply();
    switch (act) {
      case Act::kReply:
        socket.write_all(reply.data(), reply.size());
        break;
      case Act::kReplyError: {
        const std::string error = frame_bytes(
            MessageType::kError,
            encode_error(ErrorFrame{ErrorCode::kBadRequest, "scripted refusal"}));
        socket.write_all(error.data(), error.size());
        break;
      }
      case Act::kTornHeader:
        socket.write_all(reply.data(), 10);
        break;
      case Act::kTornPayload:
        socket.write_all(reply.data(), reply.size() - 3);
        break;
      case Act::kCloseBeforeReply:
        break;
      case Act::kBadMagic: {
        const std::string bad = fixture::frame_header(
            0xDEADBEEF, kVersion, static_cast<std::uint32_t>(MessageType::kHealthReply), 0);
        socket.write_all(bad.data(), bad.size());
        break;
      }
    }
  }

  common::UnixListener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> dials_{0};
  std::thread thread_;
};

void expect_health_reply(const Frame& frame) {
  ASSERT_EQ(frame.type, MessageType::kHealthReply);
  EXPECT_EQ(decode_generation_reply(frame.payload).generation, 42u);
}

/// A dying server's torn reply, then a healthy answer on the next dial.
class TornReply : public ::testing::TestWithParam<Act> {};

TEST_P(TornReply, IsReplayedOnceOnAFreshConnection) {
  ScriptedPeer peer({GetParam(), Act::kReply});
  FrameChannel channel(peer.endpoint());
  const Frame reply = channel.roundtrip(MessageType::kHealth, {});
  expect_health_reply(reply);
  EXPECT_EQ(channel.reconnects(), 1u);
  EXPECT_EQ(peer.dials(), 2u);
  EXPECT_TRUE(channel.connected());
}

INSTANTIATE_TEST_SUITE_P(Cuts, TornReply,
                         ::testing::Values(Act::kTornHeader, Act::kTornPayload,
                                           Act::kCloseBeforeReply),
                         [](const ::testing::TestParamInfo<Act>& info) {
                           switch (info.param) {
                             case Act::kTornHeader: return std::string("MidHeader");
                             case Act::kTornPayload: return std::string("MidPayload");
                             default: return std::string("BeforeReply");
                           }
                         });

/// Without a replay budget a torn or missing reply is the caller's
/// SocketError after exactly one dial, and the dead socket is dropped.
class SingleDial : public ::testing::TestWithParam<Act> {};

TEST_P(SingleDial, NotRetryableSurfacesSocketError) {
  ScriptedPeer peer({GetParam(), Act::kReply});
  FrameChannel channel(peer.endpoint());
  EXPECT_THROW((void)channel.roundtrip(MessageType::kDrain, {}), common::SocketError);
  EXPECT_FALSE(channel.connected());
  EXPECT_EQ(channel.reconnects(), 0u);
  EXPECT_EQ(peer.dials(), 1u);
}

TEST_P(SingleDial, ReconnectOffSurfacesSocketError) {
  ScriptedPeer peer({GetParam(), Act::kReply});
  FrameChannelConfig config;
  config.reconnect = false;
  FrameChannel channel(peer.endpoint(), config);
  EXPECT_THROW((void)channel.roundtrip(MessageType::kHealth, {}),
               common::SocketError);
  EXPECT_FALSE(channel.connected());
  EXPECT_EQ(peer.dials(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Cuts, SingleDial,
                         ::testing::Values(Act::kTornHeader, Act::kCloseBeforeReply),
                         [](const ::testing::TestParamInfo<Act>& info) {
                           return std::string(info.param == Act::kTornHeader ? "MidHeader"
                                                                             : "BeforeReply");
                         });

TEST(FrameChannel, ErrorFrameIsTheReplyWithNoRedial) {
  ScriptedPeer peer({Act::kReplyError, Act::kReply});
  FrameChannel channel(peer.endpoint());
  const Frame reply = channel.roundtrip(MessageType::kHealth, {});
  ASSERT_EQ(reply.type, MessageType::kError);
  const ErrorFrame error = decode_error(reply.payload);
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  EXPECT_EQ(error.message, "scripted refusal");
  EXPECT_EQ(channel.reconnects(), 0u);
  EXPECT_EQ(peer.dials(), 1u);
  EXPECT_TRUE(channel.connected());
}

TEST(FrameChannel, BadReplyHeaderPropagatesAndDropsTheSocket) {
  ScriptedPeer peer({Act::kBadMagic, Act::kReply});
  FrameChannel channel(peer.endpoint());
  try {
    (void)channel.roundtrip(MessageType::kHealth, {});
    ADD_FAILURE() << "a bad reply header must not read as a reply";
  } catch (const common::SocketError& error) {
    ADD_FAILURE() << "a whole but corrupt reply is not a transport failure: " << error.what();
  } catch (const common::SerializationError&) {
  }
  EXPECT_FALSE(channel.connected());
  EXPECT_EQ(peer.dials(), 1u);

  // The next round trip starts from a fresh dial and gets the real answer.
  expect_health_reply(channel.roundtrip(MessageType::kHealth, {}));
  EXPECT_EQ(channel.reconnects(), 1u);
  EXPECT_EQ(peer.dials(), 2u);
}

TEST(FrameChannel, ReplyOfAnotherVerbPropagatesAndDropsTheSocket) {
  ScriptedPeer peer({Act::kReply, Act::kReply});
  FrameChannel channel(peer.endpoint());
  // The peer answers every request with a HealthReply.
  EXPECT_THROW((void)channel.roundtrip(MessageType::kStats, {}), common::SerializationError);
  EXPECT_FALSE(channel.connected());
  EXPECT_EQ(peer.dials(), 1u);
  expect_health_reply(channel.roundtrip(MessageType::kHealth, {}));
  EXPECT_EQ(peer.dials(), 2u);
}

// --- the verb table ----------------------------------------------------------

TEST(VerbTable, NamesEveryRequestsReplyAndOnlyIngestDrainShutdownAreUnreplayable) {
  struct Expected {
    MessageType reply;
    bool retryable;
  };
  const std::map<MessageType, Expected> requests = {
      {MessageType::kScore, {MessageType::kScoreReply, true}},
      {MessageType::kStats, {MessageType::kStatsReply, true}},
      {MessageType::kRefresh, {MessageType::kRefreshReply, true}},
      {MessageType::kShutdown, {MessageType::kShutdownReply, false}},
      {MessageType::kHealth, {MessageType::kHealthReply, true}},
      {MessageType::kDrain, {MessageType::kDrainReply, false}},
      {MessageType::kIngest, {MessageType::kIngestReply, false}},
      {MessageType::kScoreLatest, {MessageType::kScoreLatestReply, true}},
      {MessageType::kPromote, {MessageType::kPromoteReply, true}},
      {MessageType::kRollback, {MessageType::kRollbackReply, true}},
  };
  // Every type value this version knows, plus unknown ones around them:
  // replies, Error and unknown values are no requests.
  for (std::uint32_t raw = 0; raw <= 32; ++raw) {
    const auto type = static_cast<MessageType>(raw);
    const Verb* verb = find_verb(type);
    const auto expected = requests.find(type);
    if (expected == requests.end()) {
      EXPECT_EQ(verb, nullptr) << "type " << raw;
      continue;
    }
    ASSERT_NE(verb, nullptr) << to_string(type);
    EXPECT_EQ(verb->request, type);
    EXPECT_EQ(verb->reply, expected->second.reply) << to_string(type);
    EXPECT_EQ(verb->retryable, expected->second.retryable) << to_string(type);
  }
  EXPECT_THROW((void)FrameChannel(common::Endpoint::unix_socket("/nonexistent/peer.sock"))
                   .roundtrip(MessageType::kHealthReply, {}),
               common::PreconditionError);
}

// --- ScoreLatest row cap -----------------------------------------------------

ScoreLatestRequest round_trip(std::uint64_t count, std::uint64_t seq_len) {
  ScoreLatestRequest request;
  request.entity = "SA_0";
  request.count = count;
  request.seq_len = seq_len;
  return decode_score_latest_request(encode_score_latest_request(request));
}

TEST(ScoreLatestCap, BoundsTheRowsOneRequestGathers) {
  // Each field alone is inside its 2^20 cap; their product is not.
  EXPECT_EQ(round_trip(1024, 1024).count, 1024u);
  EXPECT_THROW((void)round_trip(1025, 1025), common::SerializationError);
  EXPECT_EQ(round_trip(1, 1u << 20).seq_len, 1u << 20);
  EXPECT_THROW((void)round_trip(2, 1u << 20), common::SerializationError);
}

TEST(ScoreLatestCap, DefaultGeometryCountsAsTwelveRows) {
  // seq_len 0 selects data::kDefaultSeqLen = 12: 87,381 × 12 = 1,048,572
  // rows fit under 2^20 = 1,048,576, and one more window does not.
  EXPECT_EQ(round_trip(87381, 0).count, 87381u);
  EXPECT_THROW((void)round_trip(87382, 0), common::SerializationError);
}

}  // namespace
}  // namespace goodones::serve::wire
