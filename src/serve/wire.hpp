// The daemon's length-prefixed binary wire protocol.
//
// Every message on the socket is one frame:
//
//   u32 magic ("GOW1")  u32 version  u32 type  u64 payload_len  payload
//
// built from the same little-endian stream primitives every persisted
// artifact in the repo uses (nn/serialize.hpp), so doubles cross the wire
// bit-exactly: a daemon verdict is bitwise-identical to the in-process
// ScoringService verdict for the same bundle generation — the property
// tests/serve_daemon_test.cpp pins. Malformed input (bad magic, unsupported
// version, oversized or truncated payload, undecodable payload bytes)
// throws the typed common::SerializationError; a server answers with an
// Error frame and, for framing-level corruption, closes the connection
// (after a bad header the stream offset can no longer be trusted).
//
// One verb table (find_verb) says, for every request type, which reply
// type answers it and whether a client may replay it on a fresh
// connection; FrameChannel and the router's forwards read both from it.
//
// Versioning rules (see docs/PROTOCOL.md): the magic never changes; any
// change to the frame header or an existing payload layout bumps kVersion;
// new message types may be added within a version (an old server answers an
// unknown type with an Error frame, not a disconnect).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/socket.hpp"
#include "serve/scoring_service.hpp"

namespace goodones::serve::wire {

/// A frame header carrying a protocol version other than kVersion. Its own
/// type (still a SerializationError) so the daemon can answer with the
/// distinct UnsupportedVersion error code.
class ProtocolVersionError : public common::SerializationError {
 public:
  using common::SerializationError::SerializationError;
};

/// A frame the peer hung up in the middle of (mid-header or mid-payload).
/// Still a SerializationError, so a server answers it MalformedFrame; a
/// client's FrameChannel treats it as the transport failure it is.
class TruncatedFrameError : public common::SerializationError {
 public:
  using common::SerializationError::SerializationError;
};

inline constexpr std::uint32_t kMagic = 0x31574F47;  // "GOW1" little-endian
inline constexpr std::uint32_t kVersion = 1;
/// Upper bound on one frame's payload; anything larger is malformed by
/// definition (a Score frame of even a large fleet backfill stays far under).
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

enum class MessageType : std::uint32_t {
  kScore = 1,          ///< client -> daemon: ScoreRequest
  kScoreReply = 2,     ///< daemon -> client: ScoreResponse
  kStats = 3,          ///< client -> daemon: empty payload
  kStatsReply = 4,     ///< daemon -> client: counter snapshot
  kRefresh = 5,        ///< client -> daemon: empty payload, force a reassessment
  kRefreshReply = 6,   ///< daemon -> client: GenerationReply (flag = refreshed)
  kShutdown = 7,       ///< client -> daemon: empty payload, stop the daemon
  kShutdownReply = 8,  ///< daemon -> client: empty payload (acknowledged)
  kError = 9,          ///< daemon -> client: ErrorFrame
  kHealth = 10,        ///< client -> server: empty payload, cheap liveness probe
  kHealthReply = 11,   ///< server -> client: GenerationReply (flag = draining)
  kDrain = 12,         ///< client -> ROUTER: DrainRequest (remove + drain a shard)
  kDrainReply = 13,    ///< router -> client: DrainReply
  kIngest = 14,        ///< client -> daemon: IngestRequest (stream raw ticks)
  kIngestReply = 15,   ///< daemon -> client: IngestReply
  kScoreLatest = 16,      ///< client -> daemon: ScoreLatestRequest
  kScoreLatestReply = 17, ///< daemon -> client: ScoreResponse (same payload as kScoreReply)
  kPromote = 18,          ///< client -> daemon: GenerationRequest (canary -> primary)
  kPromoteReply = 19,     ///< daemon -> client: GenerationReply (flag = applied)
  kRollback = 20,         ///< client -> daemon: GenerationRequest (drop the canary)
  kRollbackReply = 21,    ///< daemon -> client: GenerationReply (flag = applied)
};

enum class ErrorCode : std::uint32_t {
  kMalformedFrame = 1,      ///< framing/payload corruption; connection closes
  kUnsupportedVersion = 2,  ///< header version != kVersion; connection closes
  kBadRequest = 3,          ///< well-formed but unservable (unknown entity, bad shape)
  kInternal = 4,            ///< server-side failure (refresh rebuild threw, ...)
  kUnavailable = 5,         ///< the shard owning the request is unreachable (mesh)
};

struct Frame {
  MessageType type = MessageType::kError;
  std::string payload;
};

struct ErrorFrame {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// The reply of every generation verb: a per-verb flag plus the primary
/// generation serving after the call (a router answers with the max across
/// its shards). What the flag means:
///   Refresh   a new generation was published (canary mode: staged)
///   Health    the server is draining (reserved: nothing sets it today)
///   Promote   THIS call made the staged candidate the primary
///   Rollback  THIS call dropped the staged candidate
struct GenerationReply {
  bool flag = false;
  std::uint64_t generation = 0;
};

/// Router admin: remove shard `shard` from the ring and drain it — new
/// requests reroute immediately, in-flight forwards finish, the shard's
/// pooled connections close. Addressed by shard NAME (the ring identity),
/// not endpoint — a shard keeps its identity across restarts/readdressing.
struct DrainRequest {
  std::string shard;
};

struct DrainReply {
  bool drained = false;  ///< false = no shard by that name was in the ring
  std::string message;
};

/// Streamed raw ticks for one entity: the daemon appends them to its
/// ColumnStore, so later ScoreLatest requests cut windows server-side
/// instead of the client re-sending seq_len rows of history per window.
/// The payload leads with the entity name, so a router routes Ingest with
/// the same peek it uses for Score. NOT idempotent: replaying an Ingest
/// appends the ticks twice, so the verb table marks it unreplayable and no
/// client replays it on a torn connection.
struct IngestRequest {
  std::string entity;
  /// (num_ticks x num_channels) raw readings, one row per tick.
  nn::Matrix ticks;
  /// Operating regime per tick (same length as ticks has rows).
  std::vector<data::Regime> regimes;
};

struct IngestReply {
  std::uint64_t accepted = 0;     ///< ticks appended by this request
  std::uint64_t total_ticks = 0;  ///< entity's stored history after the append
};

/// "Score entity X now": the daemon cuts the `count` most recent windows of
/// `seq_len` ticks from its store and scores them — the reply payload is a
/// ScoreResponse, bitwise-identical to a Score frame carrying the same
/// window bytes. seq_len 0 selects the default geometry
/// (data::kDefaultSeqLen). Both fields, and the rows count × seq_len the
/// shard gathers, are capped at 2^20 on the wire (larger values are
/// malformed by definition).
struct ScoreLatestRequest {
  std::string entity;
  std::uint64_t count = 1;
  std::uint64_t seq_len = 0;
};

/// Operator override of the canary policy, the payload of Promote (make the
/// staged candidate the primary now) and Rollback (drop it, primary
/// untouched). `generation` 0 addresses whatever candidate is staged; a
/// non-zero generation must name the staged candidate (an unknown
/// generation is answered with a BadRequest error frame). IDEMPOTENT and
/// replay-safe: repeating a call that already succeeded answers flag = false
/// with the (unchanged) serving generation, so the verb table lets a client
/// replay both verbs on a torn connection.
struct GenerationRequest {
  std::uint64_t generation = 0;
};

/// Counter snapshot as served by a Stats round trip.
using StatsSnapshot = std::vector<std::pair<std::string, std::uint64_t>>;

// --- the verb table ----------------------------------------------------------

/// One request type of the protocol: the reply type a server answers it
/// with (an Error frame aside), and whether a client may replay it on a
/// fresh connection after the transport died mid-exchange. A torn
/// connection cannot tell "lost before the server acted" from "lost
/// after", so only a verb whose repeat changes nothing more is retryable:
/// Ingest (an append), Drain and Shutdown are not.
struct Verb {
  MessageType request;
  MessageType reply;
  bool retryable;
};

/// The verb table's entry for `type`; nullptr when `type` is no request
/// (a reply, Error, or a value this version does not know).
const Verb* find_verb(MessageType type) noexcept;

// --- frame I/O ---------------------------------------------------------------

/// Writes one frame (header + payload) as a single send.
void send_frame(common::Socket& socket, MessageType type, std::string_view payload);

/// Reads one frame. nullopt on clean EOF at a frame boundary (the peer hung
/// up between requests). Throws common::SerializationError on bad magic,
/// unsupported version, oversized length, or EOF mid-frame;
/// common::SocketError on transport failure. An UNKNOWN type value passes
/// through (the forward-compatibility rule: the dispatcher answers it with
/// bad-request instead of the connection dying as corrupt).
std::optional<Frame> recv_frame(common::Socket& socket);

// --- payload codecs ----------------------------------------------------------
// Encoders produce the payload bytes (no header); decoders throw
// common::SerializationError on truncated or out-of-range payloads.

std::string encode_score_request(const ScoreRequest& request);
ScoreRequest decode_score_request(const std::string& payload);

std::string encode_score_response(const ScoreResponse& response);
ScoreResponse decode_score_response(const std::string& payload);

std::string encode_stats(const StatsSnapshot& stats);
StatsSnapshot decode_stats(const std::string& payload);

std::string encode_generation_reply(const GenerationReply& reply);
GenerationReply decode_generation_reply(const std::string& payload);

std::string encode_generation_request(const GenerationRequest& request);
GenerationRequest decode_generation_request(const std::string& payload);

std::string encode_error(const ErrorFrame& error);
ErrorFrame decode_error(const std::string& payload);

std::string encode_drain_request(const DrainRequest& request);
DrainRequest decode_drain_request(const std::string& payload);

std::string encode_drain_reply(const DrainReply& reply);
DrainReply decode_drain_reply(const std::string& payload);

std::string encode_ingest_request(const IngestRequest& request);
IngestRequest decode_ingest_request(const std::string& payload);

std::string encode_ingest_reply(const IngestReply& reply);
IngestReply decode_ingest_reply(const std::string& payload);

std::string encode_score_latest_request(const ScoreLatestRequest& request);
ScoreLatestRequest decode_score_latest_request(const std::string& payload);

/// Reads ONLY the leading entity name out of a Score, Ingest or
/// ScoreLatest payload (all three lead with the entity string) — all a
/// router needs to pick the owning shard. The rest of the payload is
/// forwarded byte-for-byte untouched, which is what keeps mesh verdicts
/// bitwise-identical to direct ones for free. Throws
/// common::SerializationError when even the name is truncated.
std::string peek_score_entity(const std::string& payload);

const char* to_string(MessageType type) noexcept;
const char* to_string(ErrorCode code) noexcept;

// --- client-side channels ----------------------------------------------------

/// Reconnection policy of a FrameChannel.
struct FrameChannelConfig {
  /// Dial policy — both for the first connect and for every reconnect.
  common::BackoffConfig backoff;
  /// With true, a transport failure mid-round-trip tears the connection
  /// down and replays the SAME request on a fresh one (only a verb the verb
  /// table lets a client replay), for at most three rounds. Each reconnect
  /// runs the full backoff schedule, so the worst-case wall clock is three
  /// backoff worst cases — bounded by construction. With false a dead
  /// transport surfaces immediately as common::SocketError.
  bool reconnect = true;
  /// Per-socket receive timeout (0 = none). Health probes set this so a
  /// hung peer surfaces as SocketError instead of wedging the prober.
  int recv_timeout_ms = 0;
};

/// One logical request/reply stream to a wire-protocol server, surviving
/// the server's restarts: connects lazily, reconnects with bounded
/// exponential backoff + jitter, and (for a verb the verb table lets a
/// client replay) replays the request on a fresh connection when the
/// transport dies mid-exchange. This is the client half of the mesh's fault model —
/// serve::DaemonClient pools these, and the router's per-shard forwarding
/// channels are the same class.
///
/// NOT thread-safe: one channel serves one round trip at a time (pool
/// channels via ChannelPool for concurrency).
class FrameChannel {
 public:
  explicit FrameChannel(common::Endpoint endpoint, FrameChannelConfig config = {});

  const common::Endpoint& endpoint() const noexcept { return endpoint_; }
  bool connected() const noexcept { return socket_.valid(); }

  /// Dials now (with the configured backoff) instead of on first use.
  void ensure_connected();

  /// Sends one request frame and reads the reply frame: the verb table's
  /// reply type for `type`, or an Error frame (returned, never replayed).
  /// Any other reply type throws common::SerializationError. nullopt never
  /// escapes: a clean server-side close before the reply is a transport
  /// failure here and follows the replay rules above. `type` must be a
  /// request type (common::PreconditionError otherwise).
  Frame roundtrip(MessageType type, std::string_view payload);

  /// Drops the connection (the next round trip redials).
  void close() noexcept;

  /// How many times the channel re-established a connection after having
  /// been connected before — the fault-injection tests' probe that
  /// reconnect-with-backoff actually happened.
  std::uint64_t reconnects() const noexcept { return reconnects_; }

 private:
  common::Endpoint endpoint_;
  FrameChannelConfig config_;
  common::Socket socket_;
  bool was_connected_ = false;
  std::uint64_t reconnects_ = 0;
};

/// A lazily-grown, bounded pool of FrameChannels to one endpoint.
/// acquire() hands out an exclusive lease (RAII — returns the channel on
/// destruction) and blocks when all `capacity` channels are leased.
class ChannelPool {
 public:
  ChannelPool(common::Endpoint endpoint, FrameChannelConfig config, std::size_t capacity);

  class Lease {
   public:
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    ~Lease();
    FrameChannel& operator*() const noexcept { return *channel_; }
    FrameChannel* operator->() const noexcept { return channel_; }

   private:
    friend class ChannelPool;
    Lease(ChannelPool* pool, FrameChannel* channel) : pool_(pool), channel_(channel) {}
    ChannelPool* pool_;
    FrameChannel* channel_;
  };

  Lease acquire();

  const common::Endpoint& endpoint() const noexcept { return endpoint_; }

  /// Closes every currently-unleased connection. The pool stays usable —
  /// channels redial on next use — so a drain pairs this with an external
  /// "stop routing here" flag and waits for outstanding leases first.
  void close_connections();

  /// Total reconnects across all channels (see FrameChannel::reconnects).
  std::uint64_t reconnects() const;

 private:
  void release(FrameChannel* channel);

  common::Endpoint endpoint_;
  FrameChannelConfig config_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::vector<std::unique_ptr<FrameChannel>> channels_;  ///< all ever created
  std::vector<FrameChannel*> free_;
};

}  // namespace goodones::serve::wire
