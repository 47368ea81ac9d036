#include "serve/wire.hpp"

#include <cstring>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "data/window.hpp"
#include "nn/serialize.hpp"

namespace goodones::serve::wire {

namespace {

constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8;

/// Fresh connections one replayed round trip may burn before the
/// transport error propagates (see FrameChannelConfig::reconnect).
constexpr std::size_t kRetryRounds = 3;

/// The verb table (docs/PROTOCOL.md, "Verbs", mirrors it).
constexpr Verb kVerbs[] = {
    {MessageType::kScore, MessageType::kScoreReply, /*retryable=*/true},
    {MessageType::kStats, MessageType::kStatsReply, /*retryable=*/true},
    {MessageType::kRefresh, MessageType::kRefreshReply, /*retryable=*/true},
    {MessageType::kShutdown, MessageType::kShutdownReply, /*retryable=*/false},
    {MessageType::kHealth, MessageType::kHealthReply, /*retryable=*/true},
    {MessageType::kDrain, MessageType::kDrainReply, /*retryable=*/false},
    {MessageType::kIngest, MessageType::kIngestReply, /*retryable=*/false},
    {MessageType::kScoreLatest, MessageType::kScoreLatestReply, /*retryable=*/true},
    {MessageType::kPromote, MessageType::kPromoteReply, /*retryable=*/true},
    {MessageType::kRollback, MessageType::kRollbackReply, /*retryable=*/true},
};

void put_u32(char* out, std::uint32_t v) { std::memcpy(out, &v, sizeof(v)); }
void put_u64(char* out, std::uint64_t v) { std::memcpy(out, &v, sizeof(v)); }
std::uint32_t get_u32(const char* in) {
  std::uint32_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}
std::uint64_t get_u64(const char* in) {
  std::uint64_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}

/// Reads a u32 that must fall in [0, max]; names `what` on violation.
std::uint32_t read_bounded_u32(std::istream& in, std::uint32_t max, const char* what) {
  const std::uint32_t value = nn::read_u32(in, what);
  if (value > max) {
    throw common::SerializationError(std::string("wire: ") + what + " out of range: " +
                                     std::to_string(value));
  }
  return value;
}

/// All payloads must be consumed exactly; trailing bytes mean the peer and
/// we disagree about the layout — corrupt, not ignorable.
void expect_consumed(std::istream& in, const char* what) {
  if (in.peek() != std::char_traits<char>::eof()) {
    throw common::SerializationError(std::string("wire: trailing bytes after ") + what);
  }
}

/// Guards attacker-controlled element counts before any reserve/allocation:
/// every encoded element costs at least one payload byte, so a count
/// exceeding the payload size is corrupt by construction (and must surface
/// as the typed SerializationError, never std::length_error/bad_alloc).
std::size_t checked_count(std::uint64_t count, const std::string& payload,
                          const char* what) {
  if (count > payload.size()) {
    throw common::SerializationError(std::string("wire: ") + what + " count " +
                                     std::to_string(count) +
                                     " exceeds the payload size");
  }
  return static_cast<std::size_t>(count);
}

}  // namespace

const Verb* find_verb(MessageType type) noexcept {
  for (const Verb& verb : kVerbs) {
    if (verb.request == type) return &verb;
  }
  return nullptr;
}

void send_frame(common::Socket& socket, MessageType type, std::string_view payload) {
  std::string frame(kHeaderBytes + payload.size(), '\0');
  put_u32(frame.data(), kMagic);
  put_u32(frame.data() + 4, kVersion);
  put_u32(frame.data() + 8, static_cast<std::uint32_t>(type));
  put_u64(frame.data() + 12, payload.size());
  if (!payload.empty()) {
    std::memcpy(frame.data() + kHeaderBytes, payload.data(), payload.size());
  }
  socket.write_all(frame.data(), frame.size());
}

std::optional<Frame> recv_frame(common::Socket& socket) {
  char header[kHeaderBytes];
  switch (socket.read_exact(header, sizeof(header))) {
    case common::Socket::ReadResult::kClosed:
      return std::nullopt;
    case common::Socket::ReadResult::kTruncated:
      throw TruncatedFrameError("wire: connection closed mid-header");
    case common::Socket::ReadResult::kOk:
      break;
  }
  if (get_u32(header) != kMagic) {
    throw common::SerializationError("wire: bad frame magic");
  }
  if (get_u32(header + 4) != kVersion) {
    throw ProtocolVersionError("wire: unsupported protocol version " +
                               std::to_string(get_u32(header + 4)));
  }
  // Any type value is accepted at this layer — the forward-compatibility
  // rule: a well-framed unknown type must reach the dispatcher (which
  // answers bad-request and keeps the connection), not read as corruption.
  const std::uint32_t raw_type = get_u32(header + 8);
  const std::uint64_t length = get_u64(header + 12);
  if (length > kMaxPayloadBytes) {
    throw common::SerializationError("wire: payload length " + std::to_string(length) +
                                     " exceeds the frame limit");
  }
  Frame frame;
  frame.type = static_cast<MessageType>(raw_type);
  frame.payload.resize(static_cast<std::size_t>(length));
  if (length > 0 &&
      socket.read_exact(frame.payload.data(), frame.payload.size()) !=
          common::Socket::ReadResult::kOk) {
    throw TruncatedFrameError("wire: connection closed mid-payload");
  }
  return frame;
}

std::string encode_score_request(const ScoreRequest& request) {
  std::ostringstream out;
  nn::write_string(out, request.entity);
  nn::write_u64(out, request.windows.size());
  for (const TelemetryWindow& window : request.windows) {
    nn::write_u32(out, static_cast<std::uint32_t>(window.regime));
    nn::write_matrix(out, window.features);
  }
  return std::move(out).str();
}

ScoreRequest decode_score_request(const std::string& payload) {
  std::istringstream in(payload);
  ScoreRequest request;
  request.entity = nn::read_string(in, "score request entity");
  const std::size_t count = checked_count(
      nn::read_u64(in, "score request window count"), payload, "score request window");
  request.windows.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    TelemetryWindow window;
    window.regime = static_cast<data::Regime>(read_bounded_u32(in, 1, "window regime"));
    window.features = nn::read_matrix(in);
    request.windows.push_back(std::move(window));
  }
  expect_consumed(in, "score request");
  return request;
}

std::string encode_score_response(const ScoreResponse& response) {
  std::ostringstream out;
  nn::write_u64(out, response.entity_index);
  nn::write_u32(out, static_cast<std::uint32_t>(response.cluster));
  nn::write_u64(out, response.generation);
  nn::write_u64(out, response.windows.size());
  for (const WindowScore& score : response.windows) {
    nn::write_f64(out, score.forecast);
    nn::write_f64(out, score.residual);
    nn::write_u32(out, static_cast<std::uint32_t>(score.observed_state));
    nn::write_u32(out, static_cast<std::uint32_t>(score.predicted_state));
    nn::write_f64(out, score.anomaly_score);
    nn::write_u32(out, score.flagged ? 1 : 0);
    nn::write_f64(out, score.risk);
  }
  return std::move(out).str();
}

ScoreResponse decode_score_response(const std::string& payload) {
  std::istringstream in(payload);
  ScoreResponse response;
  response.entity_index =
      static_cast<std::size_t>(nn::read_u64(in, "score response entity index"));
  response.cluster = static_cast<Cluster>(read_bounded_u32(in, 1, "response cluster"));
  response.generation = nn::read_u64(in, "score response generation");
  const std::size_t count =
      checked_count(nn::read_u64(in, "score response window count"), payload,
                    "score response window");
  response.windows.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    WindowScore score;
    score.forecast = nn::read_f64(in, "window forecast");
    score.residual = nn::read_f64(in, "window residual");
    score.observed_state =
        static_cast<data::StateLabel>(read_bounded_u32(in, 2, "observed state"));
    score.predicted_state =
        static_cast<data::StateLabel>(read_bounded_u32(in, 2, "predicted state"));
    score.anomaly_score = nn::read_f64(in, "window anomaly score");
    score.flagged = read_bounded_u32(in, 1, "window flag") == 1;
    score.risk = nn::read_f64(in, "window risk");
    response.windows.push_back(score);
  }
  expect_consumed(in, "score response");
  return response;
}

std::string encode_stats(const StatsSnapshot& stats) {
  std::ostringstream out;
  nn::write_u64(out, stats.size());
  for (const auto& [name, value] : stats) {
    nn::write_string(out, name);
    nn::write_u64(out, value);
  }
  return std::move(out).str();
}

StatsSnapshot decode_stats(const std::string& payload) {
  std::istringstream in(payload);
  const std::size_t count =
      checked_count(nn::read_u64(in, "stats count"), payload, "stats entry");
  StatsSnapshot stats;
  stats.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string name = nn::read_string(in, "stats counter name");
    const std::uint64_t value = nn::read_u64(in, "stats counter value");
    stats.emplace_back(std::move(name), value);
  }
  expect_consumed(in, "stats");
  return stats;
}

std::string encode_generation_reply(const GenerationReply& reply) {
  std::ostringstream out;
  nn::write_u32(out, reply.flag ? 1 : 0);
  nn::write_u64(out, reply.generation);
  return std::move(out).str();
}

GenerationReply decode_generation_reply(const std::string& payload) {
  std::istringstream in(payload);
  GenerationReply reply;
  reply.flag = read_bounded_u32(in, 1, "generation reply flag") == 1;
  reply.generation = nn::read_u64(in, "generation reply generation");
  expect_consumed(in, "generation reply");
  return reply;
}

std::string encode_generation_request(const GenerationRequest& request) {
  std::ostringstream out;
  nn::write_u64(out, request.generation);
  return std::move(out).str();
}

GenerationRequest decode_generation_request(const std::string& payload) {
  std::istringstream in(payload);
  GenerationRequest request;
  request.generation = nn::read_u64(in, "generation request generation");
  expect_consumed(in, "generation request");
  return request;
}

std::string encode_error(const ErrorFrame& error) {
  std::ostringstream out;
  nn::write_u32(out, static_cast<std::uint32_t>(error.code));
  nn::write_string(out, error.message);
  return std::move(out).str();
}

ErrorFrame decode_error(const std::string& payload) {
  std::istringstream in(payload);
  ErrorFrame error;
  const std::uint32_t code = read_bounded_u32(
      in, static_cast<std::uint32_t>(ErrorCode::kUnavailable), "error code");
  if (code == 0) throw common::SerializationError("wire: error code out of range: 0");
  error.code = static_cast<ErrorCode>(code);
  error.message = nn::read_string(in, "error message");
  expect_consumed(in, "error frame");
  return error;
}

std::string encode_drain_request(const DrainRequest& request) {
  std::ostringstream out;
  nn::write_string(out, request.shard);
  return std::move(out).str();
}

DrainRequest decode_drain_request(const std::string& payload) {
  std::istringstream in(payload);
  DrainRequest request;
  request.shard = nn::read_string(in, "drain shard name");
  expect_consumed(in, "drain request");
  return request;
}

std::string encode_drain_reply(const DrainReply& reply) {
  std::ostringstream out;
  nn::write_u32(out, reply.drained ? 1 : 0);
  nn::write_string(out, reply.message);
  return std::move(out).str();
}

DrainReply decode_drain_reply(const std::string& payload) {
  std::istringstream in(payload);
  DrainReply reply;
  reply.drained = read_bounded_u32(in, 1, "drain flag") == 1;
  reply.message = nn::read_string(in, "drain message");
  expect_consumed(in, "drain reply");
  return reply;
}

std::string encode_ingest_request(const IngestRequest& request) {
  std::ostringstream out;
  nn::write_string(out, request.entity);
  nn::write_matrix(out, request.ticks);
  std::vector<std::uint8_t> regimes;
  regimes.reserve(request.regimes.size());
  for (const data::Regime r : request.regimes) {
    regimes.push_back(static_cast<std::uint8_t>(r));
  }
  nn::write_u8_vector(out, regimes);
  return std::move(out).str();
}

IngestRequest decode_ingest_request(const std::string& payload) {
  std::istringstream in(payload);
  IngestRequest request;
  request.entity = nn::read_string(in, "ingest entity");
  request.ticks = nn::read_matrix(in);
  const std::vector<std::uint8_t> regimes = nn::read_u8_vector(in, "ingest regimes");
  if (regimes.size() != request.ticks.rows()) {
    throw common::SerializationError(
        "wire: ingest regime count " + std::to_string(regimes.size()) +
        " disagrees with tick count " + std::to_string(request.ticks.rows()));
  }
  request.regimes.reserve(regimes.size());
  for (const std::uint8_t r : regimes) {
    if (r > static_cast<std::uint8_t>(data::Regime::kActive)) {
      throw common::SerializationError("wire: ingest regime out of range: " +
                                       std::to_string(r));
    }
    request.regimes.push_back(static_cast<data::Regime>(r));
  }
  expect_consumed(in, "ingest request");
  return request;
}

std::string encode_ingest_reply(const IngestReply& reply) {
  std::ostringstream out;
  nn::write_u64(out, reply.accepted);
  nn::write_u64(out, reply.total_ticks);
  return std::move(out).str();
}

IngestReply decode_ingest_reply(const std::string& payload) {
  std::istringstream in(payload);
  IngestReply reply;
  reply.accepted = nn::read_u64(in, "ingest accepted count");
  reply.total_ticks = nn::read_u64(in, "ingest total ticks");
  expect_consumed(in, "ingest reply");
  return reply;
}

std::string encode_score_latest_request(const ScoreLatestRequest& request) {
  std::ostringstream out;
  nn::write_string(out, request.entity);
  nn::write_u64(out, request.count);
  nn::write_u64(out, request.seq_len);
  return std::move(out).str();
}

ScoreLatestRequest decode_score_latest_request(const std::string& payload) {
  std::istringstream in(payload);
  ScoreLatestRequest request;
  request.entity = nn::read_string(in, "score-latest entity");
  // Protocol-level caps (2^20): a count or geometry beyond them cannot be a
  // legitimate request, and bounding here keeps a hostile frame from
  // driving giant downstream allocations.
  constexpr std::uint64_t kMax = 1ull << 20;
  request.count = nn::read_u64(in, "score-latest window count");
  if (request.count > kMax) {
    throw common::SerializationError("wire: score-latest window count out of range: " +
                                     std::to_string(request.count));
  }
  request.seq_len = nn::read_u64(in, "score-latest seq_len");
  if (request.seq_len > kMax) {
    throw common::SerializationError("wire: score-latest seq_len out of range: " +
                                     std::to_string(request.seq_len));
  }
  // The shard gathers every window before scoring, so the same cap bounds
  // the rows one request can make it hold (seq_len 0 = the default).
  const std::uint64_t seq_len = request.seq_len == 0 ? data::kDefaultSeqLen : request.seq_len;
  if (request.count * seq_len > kMax) {
    throw common::SerializationError("wire: score-latest count x seq_len out of range: " +
                                     std::to_string(request.count) + " x " +
                                     std::to_string(seq_len));
  }
  expect_consumed(in, "score-latest request");
  return request;
}

std::string peek_score_entity(const std::string& payload) {
  std::istringstream in(payload);
  // Deliberately no expect_consumed: the windows after the name are the
  // backend's to validate — the router routes on the name alone and
  // forwards the payload bytes untouched.
  return nn::read_string(in, "score request entity");
}

const char* to_string(MessageType type) noexcept {
  switch (type) {
    case MessageType::kScore: return "Score";
    case MessageType::kScoreReply: return "ScoreReply";
    case MessageType::kStats: return "Stats";
    case MessageType::kStatsReply: return "StatsReply";
    case MessageType::kRefresh: return "Refresh";
    case MessageType::kRefreshReply: return "RefreshReply";
    case MessageType::kShutdown: return "Shutdown";
    case MessageType::kShutdownReply: return "ShutdownReply";
    case MessageType::kError: return "Error";
    case MessageType::kHealth: return "Health";
    case MessageType::kHealthReply: return "HealthReply";
    case MessageType::kDrain: return "Drain";
    case MessageType::kDrainReply: return "DrainReply";
    case MessageType::kIngest: return "Ingest";
    case MessageType::kIngestReply: return "IngestReply";
    case MessageType::kScoreLatest: return "ScoreLatest";
    case MessageType::kScoreLatestReply: return "ScoreLatestReply";
    case MessageType::kPromote: return "Promote";
    case MessageType::kPromoteReply: return "PromoteReply";
    case MessageType::kRollback: return "Rollback";
    case MessageType::kRollbackReply: return "RollbackReply";
  }
  return "?";
}

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kUnsupportedVersion: return "unsupported-version";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kUnavailable: return "unavailable";
  }
  return "?";
}

// --- FrameChannel ------------------------------------------------------------

FrameChannel::FrameChannel(common::Endpoint endpoint, FrameChannelConfig config)
    : endpoint_(std::move(endpoint)), config_(std::move(config)) {}

void FrameChannel::ensure_connected() {
  if (socket_.valid()) return;
  socket_ = common::connect_with_backoff(endpoint_, config_.backoff);
  if (config_.recv_timeout_ms > 0) socket_.set_recv_timeout_ms(config_.recv_timeout_ms);
  if (was_connected_) ++reconnects_;
  was_connected_ = true;
}

Frame FrameChannel::roundtrip(MessageType type, std::string_view payload) {
  const Verb* verb = find_verb(type);
  GO_EXPECTS(verb != nullptr);
  const std::size_t rounds = (verb->retryable && config_.reconnect) ? kRetryRounds : 1;
  for (std::size_t round = 1;; ++round) {
    try {
      ensure_connected();
      send_frame(socket_, type, payload);
      std::optional<Frame> reply;
      try {
        reply = recv_frame(socket_);
      } catch (const TruncatedFrameError& error) {
        // The server hung up mid-reply (a shard dying mid-write): the
        // stream offset is lost, and it is the same transport failure as
        // a clean close before the reply.
        throw common::SocketError(std::string("server closed the connection mid-reply (") +
                                  error.what() + ")");
      }
      if (!reply) {
        // The server closed cleanly before answering: a restarting shard
        // draining its listener looks exactly like this, so it follows
        // the same retry rules as a torn connection.
        throw common::SocketError("server closed the connection before replying");
      }
      if (reply->type != verb->reply && reply->type != MessageType::kError) {
        throw common::SerializationError(std::string("wire: expected ") +
                                         to_string(verb->reply) + ", got " +
                                         to_string(reply->type));
      }
      return std::move(*reply);
    } catch (const common::SocketError&) {
      // The connection is unusable (dial failed after its backoff budget,
      // or it died mid-exchange); the NEXT round starts from a fresh dial.
      socket_.close();
      if (round >= rounds) throw;
    } catch (const common::SerializationError&) {
      // A reply that arrived whole but does not frame (bad magic, version
      // or length) or answers another verb propagates immediately:
      // replaying would just repeat the disagreement. The socket goes too,
      // since the peer's idea of the stream is no longer known.
      socket_.close();
      throw;
    }
  }
}

void FrameChannel::close() noexcept { socket_.close(); }

// --- ChannelPool -------------------------------------------------------------

ChannelPool::ChannelPool(common::Endpoint endpoint, FrameChannelConfig config,
                         std::size_t capacity)
    : endpoint_(std::move(endpoint)),
      config_(std::move(config)),
      capacity_(capacity == 0 ? 1 : capacity) {}

ChannelPool::Lease::Lease(Lease&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      channel_(std::exchange(other.channel_, nullptr)) {}

ChannelPool::Lease::~Lease() {
  if (pool_ != nullptr) pool_->release(channel_);
}

ChannelPool::Lease ChannelPool::acquire() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!free_.empty()) {
      FrameChannel* channel = free_.back();
      free_.pop_back();
      return Lease(this, channel);
    }
    if (channels_.size() < capacity_) {
      channels_.push_back(std::make_unique<FrameChannel>(endpoint_, config_));
      return Lease(this, channels_.back().get());
    }
    available_.wait(lock);
  }
}

void ChannelPool::release(FrameChannel* channel) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(channel);
  }
  available_.notify_one();
}

void ChannelPool::close_connections() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (FrameChannel* channel : free_) channel->close();
}

std::uint64_t ChannelPool::reconnects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& channel : channels_) total += channel->reconnects();
  return total;
}

}  // namespace goodones::serve::wire
