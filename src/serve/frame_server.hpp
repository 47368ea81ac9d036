// The shared skeleton of every wire-protocol server in the mesh.
//
// serve::Daemon (a scoring shard) and serve::Router (the consistent-hash
// front end) speak the same framed protocol and need the same lifecycle:
// bind a listener on some transport, accept in a dedicated thread, serve
// each connection on its own handler thread (requests in order per
// connection, connections concurrent), contain failures to typed Error
// frames, drain cleanly on stop. FrameServer owns exactly that and nothing
// else; subclasses implement handle() for their message semantics and
// hook on_started()/on_stopping() for their own workers (the router's
// health prober, for example).
//
// One path for every verb: FrameServer reads a frame, calls handle(),
// and sends the reply frame handle() returns. A handler never touches the
// socket. It reports a failure by throwing, and FrameServer alone maps the
// failure to an Error frame and counts it (see handle()). A malformed
// frame header (bad magic/version/length, mid-frame EOF) gets a typed
// Error frame and the connection is closed — after a corrupt header the
// stream offset cannot be trusted. Every other Error frame keeps the
// connection open. Shutdown is FrameServer's own verb. The server itself
// never crashes on client input; the wire fuzz suite drives mutated frames
// at both transports to hold that line.
#pragma once

#include <atomic>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "common/socket.hpp"
#include "serve/wire.hpp"

namespace goodones::serve {

struct FrameServerConfig {
  /// Where to listen: unix:<path> (single-host IPC) or tcp:<host>:<port>
  /// (the mesh transport; port 0 = ephemeral, see FrameServer::endpoint()).
  common::Endpoint listen;
  /// Accept-loop poll granularity (how quickly stop() is observed).
  int accept_poll_ms = 100;
  /// Counter family ("serve.daemon", "serve.router"): the lifecycle
  /// counters — connections, frames, malformed_frames, error_frames,
  /// accept_failures — land under this prefix in core::metrics.
  std::string counter_prefix = "serve.daemon";
};

class FrameServer {
 public:
  explicit FrameServer(FrameServerConfig config);
  virtual ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds the listener and starts the accept loop. Throws
  /// common::SocketError when the endpoint cannot be bound. A FrameServer
  /// serves ONE lifecycle: start() after stop() is a precondition error.
  void start();

  /// Blocks until a Shutdown frame (or a concurrent stop()) ends the
  /// serving loop, then tears down: stops accepting, waits for in-flight
  /// requests to finish, joins every connection.
  void wait();

  /// Initiates and completes shutdown from the caller's thread. Safe to
  /// call repeatedly; must not be called from a connection handler (a
  /// Shutdown frame is the in-band way — it only *requests* the stop).
  void stop();

  bool running() const noexcept { return running_.load(); }

  /// The RESOLVED listen endpoint: bound with tcp port 0, this reports the
  /// kernel-assigned port once start() returns. Before start() it echoes
  /// the configured endpoint.
  const common::Endpoint& endpoint() const noexcept;

 protected:
  /// A request payload that failed to decode inside a whole frame.
  class MalformedRequest : public common::SerializationError {
   public:
    using common::SerializationError::SerializationError;
  };

  /// Answers the request with an Error frame of this code (the router's
  /// unavailable, and a shard's refusal it relays under the shard's code).
  class ErrorReply : public std::runtime_error {
   public:
    ErrorReply(wire::ErrorCode code, const std::string& message)
        : std::runtime_error(message), code_(code) {}
    wire::ErrorCode code() const noexcept { return code_; }

   private:
    wire::ErrorCode code_;
  };

  /// Serves one well-framed request (never Shutdown) and returns its reply
  /// frame, which FrameServer sends. Runs on the connection's handler
  /// thread. A handler adds its counters before it returns, so a Stats
  /// answered after the reply sees them. A failure is thrown; FrameServer
  /// answers it with an Error frame, counts it in <prefix>.error_frames and
  /// keeps the connection:
  ///   MalformedRequest           malformed-frame (+ <prefix>.malformed_frames)
  ///   ErrorReply                 its own code
  ///   common::PreconditionError  bad-request
  ///   any other exception        internal
  virtual wire::Frame handle(const wire::Frame& request) = 0;

  /// Decodes a request payload with a wire codec, rethrowing its failure
  /// as MalformedRequest. A SerializationError raised later, while the
  /// request is served (a store seal, a registry write), stays internal.
  template <typename Decode>
  static auto decode(Decode decode_payload, const std::string& payload)
      -> decltype(decode_payload(payload)) {
    try {
      return decode_payload(payload);
    } catch (const common::SerializationError& error) {
      throw MalformedRequest(error.what());
    }
  }

  /// Called after the listener is bound and the accept loop is live.
  virtual void on_started() {}
  /// Called during stop(), after every connection handler has been joined
  /// and before running() flips false — join subclass workers here.
  virtual void on_stopping() {}

 private:
  struct Connection {
    std::shared_ptr<common::Socket> socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// <prefix>.<name> of every lifecycle counter, built once.
  struct CounterNames {
    explicit CounterNames(const std::string& prefix);
    std::string connections;
    std::string frames;
    std::string malformed_frames;
    std::string error_frames;
    std::string accept_failures;
  };

  void accept_loop();
  void handle_connection(Connection& connection);
  /// Sends handle()'s reply, or the Error frame its failure maps to.
  void reply_to(common::Socket& socket, const wire::Frame& request);
  void reap_finished_connections();
  /// Emits a typed Error frame, best-effort (the peer may be gone).
  void send_error(common::Socket& socket, wire::ErrorCode code,
                  const std::string& message) noexcept;
  /// Requests the serving loop to end (the in-band Shutdown path).
  void request_stop();

  FrameServerConfig config_;
  const CounterNames counter_names_;
  std::unique_ptr<common::Listener> listener_;
  std::thread accept_thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};

  std::mutex state_mutex_;  // guards connections_ + stopped_ + wait/stop cv
  std::condition_variable stop_cv_;
  std::list<std::unique_ptr<Connection>> connections_;
  bool stopped_ = false;

  std::mutex teardown_mutex_;  // serializes stop() callers
  bool stopped_after_teardown_ = false;
};

}  // namespace goodones::serve
