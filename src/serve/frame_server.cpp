#include "serve/frame_server.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/metrics.hpp"

namespace goodones::serve {

namespace {

/// Per-connection send timeout: a client that stops reading its replies
/// gets its connection dropped after this long instead of wedging a
/// handler thread (and therefore shutdown) forever.
constexpr int kSendTimeoutMs = 10000;

}  // namespace

FrameServer::CounterNames::CounterNames(const std::string& prefix)
    : connections(prefix + ".connections"),
      frames(prefix + ".frames"),
      malformed_frames(prefix + ".malformed_frames"),
      error_frames(prefix + ".error_frames"),
      accept_failures(prefix + ".accept_failures") {}

FrameServer::FrameServer(FrameServerConfig config)
    : config_(std::move(config)), counter_names_(config_.counter_prefix) {
  GO_EXPECTS(!config_.listen.empty());
  GO_EXPECTS(config_.accept_poll_ms > 0);
}

FrameServer::~FrameServer() {
  // Subclass destructors must call stop() themselves (handle() may run
  // on a connection thread while the subclass is being destroyed
  // otherwise); this is the backstop for subclasses that never started.
  stop();
}

const common::Endpoint& FrameServer::endpoint() const noexcept {
  return listener_ ? listener_->endpoint() : config_.listen;
}

void FrameServer::start() {
  GO_EXPECTS(!running_.load());
  GO_EXPECTS(!accept_thread_.joinable());
  {
    // One lifecycle per server: restarting after stop() would leave the
    // teardown latch set and every later stop() a no-op.
    const std::lock_guard<std::mutex> teardown(teardown_mutex_);
    GO_EXPECTS(!stopped_after_teardown_);
  }
  listener_ = common::make_listener(config_.listen);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  on_started();
}

void FrameServer::request_stop() {
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    stop_requested_.store(true);
  }
  stop_cv_.notify_all();
}

void FrameServer::wait() {
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    stop_cv_.wait(lock, [this] { return stop_requested_.load() || stopped_; });
  }
  stop();
}

void FrameServer::stop() {
  request_stop();
  // Serialize teardown (wait() and an explicit stop() may race).
  const std::lock_guard<std::mutex> teardown(teardown_mutex_);
  if (stopped_after_teardown_) return;
  stopped_after_teardown_ = true;

  if (accept_thread_.joinable()) accept_thread_.join();
  if (listener_) listener_->close();
  // Drain: half-close each live connection's read side. A handler busy
  // serving finishes and flushes its in-flight response (writes still
  // flow), then observes EOF on its next read and exits.
  // After the accept thread joined, nothing mutates connections_.
  for (auto& connection : connections_) connection->socket->shutdown_read();
  for (auto& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  connections_.clear();
  on_stopping();
  running_.store(false);
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    stopped_ = true;
  }
  stop_cv_.notify_all();
  common::log_info(config_.counter_prefix, " stopped (", config_.listen.to_string(), ")");
}

void FrameServer::accept_loop() {
  while (!stop_requested_.load()) {
    common::Socket socket;
    try {
      socket = listener_->accept(config_.accept_poll_ms);
      if (socket.valid()) socket.set_send_timeout_ms(kSendTimeoutMs);
    } catch (const std::exception& error) {
      // Transient accept failures (fd exhaustion above all) must never
      // escape the thread (std::terminate); back off and keep serving the
      // connections that already exist.
      core::counters().add(counter_names_.accept_failures, 1);
      common::log_warn(config_.counter_prefix, " accept failed (backing off): ",
                       error.what());
      std::this_thread::sleep_for(std::chrono::milliseconds(config_.accept_poll_ms));
      reap_finished_connections();
      continue;
    }
    reap_finished_connections();
    if (!socket.valid()) continue;
    core::counters().add(counter_names_.connections, 1);
    auto connection = std::make_unique<Connection>();
    connection->socket = std::make_shared<common::Socket>(std::move(socket));
    Connection& ref = *connection;
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      connections_.push_back(std::move(connection));
    }
    ref.thread = std::thread([this, &ref] { handle_connection(ref); });
  }
}

void FrameServer::reap_finished_connections() {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void FrameServer::handle_connection(Connection& connection) {
  common::Socket& socket = *connection.socket;
  try {
    for (;;) {
      std::optional<wire::Frame> frame;
      try {
        frame = wire::recv_frame(socket);
      } catch (const wire::ProtocolVersionError& error) {
        core::counters().add(counter_names_.malformed_frames, 1);
        send_error(socket, wire::ErrorCode::kUnsupportedVersion, error.what());
        break;  // the peer speaks a different protocol revision
      } catch (const common::SerializationError& error) {
        core::counters().add(counter_names_.malformed_frames, 1);
        send_error(socket, wire::ErrorCode::kMalformedFrame, error.what());
        break;  // after a corrupt header the stream offset is untrustworthy
      }
      if (!frame) break;  // clean EOF between frames
      core::counters().add(counter_names_.frames, 1);
      if (frame->type == wire::MessageType::kShutdown) {
        // Acknowledge, then end the serving loop; this connection closes
        // here and stop() drains the others.
        wire::send_frame(socket, wire::MessageType::kShutdownReply, {});
        request_stop();
        break;
      }
      reply_to(socket, *frame);
    }
  } catch (const common::SocketError& error) {
    common::log_debug(config_.counter_prefix, " connection dropped: ", error.what());
  } catch (const std::exception& error) {
    common::log_warn(config_.counter_prefix, " connection handler failed: ", error.what());
  }
  // The socket is NOT closed here: stop() may call shutdown_read() on it
  // concurrently, and Socket::fd_ is unsynchronized. The fd closes when the
  // connection is reaped (next accept tick) or at teardown — both after
  // this thread is joined.
  connection.done.store(true);
}

void FrameServer::reply_to(common::Socket& socket, const wire::Frame& request) {
  wire::Frame reply;
  try {
    reply = handle(request);
  } catch (const MalformedRequest& error) {
    // Frame boundaries are intact: answer and keep the connection.
    core::counters().add(counter_names_.malformed_frames, 1);
    send_error(socket, wire::ErrorCode::kMalformedFrame, error.what());
    return;
  } catch (const ErrorReply& error) {
    send_error(socket, error.code(), error.what());
    return;
  } catch (const common::PreconditionError& error) {
    send_error(socket, wire::ErrorCode::kBadRequest, error.what());
    return;
  } catch (const std::exception& error) {
    // Any other server-side failure is what kInternal exists for; the
    // client must get a typed reply, not a silent disconnect.
    send_error(socket, wire::ErrorCode::kInternal, error.what());
    return;
  }
  wire::send_frame(socket, reply.type, reply.payload);
}

void FrameServer::send_error(common::Socket& socket, wire::ErrorCode code,
                             const std::string& message) noexcept {
  core::counters().add(counter_names_.error_frames, 1);
  try {
    wire::ErrorFrame error;
    error.code = code;
    error.message = message;
    wire::send_frame(socket, wire::MessageType::kError, wire::encode_error(error));
  } catch (const std::exception&) {
    // Best-effort: the peer may already be gone.
  }
}

}  // namespace goodones::serve
