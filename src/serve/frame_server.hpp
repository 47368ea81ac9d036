// The shared skeleton of every wire-protocol server in the mesh.
//
// serve::Daemon (a scoring shard) and serve::Router (the consistent-hash
// front end) speak the same framed protocol and need the same lifecycle:
// bind a listener on some transport, accept in a dedicated thread, serve
// each connection on its own handler thread (requests in order per
// connection, connections concurrent), contain protocol errors to typed
// Error frames, drain cleanly on stop. FrameServer owns exactly that and
// nothing else; subclasses implement dispatch() for their message
// semantics and hook on_started()/on_stopping() for their own workers
// (the router's health prober, for example).
//
// Error containment (inherited by every subclass): a malformed frame
// header (bad magic/version/length, mid-frame EOF) gets a typed Error
// frame and the connection is closed — after a corrupt header the stream
// offset cannot be trusted. An undecodable payload inside a well-framed
// message is the subclass's call (the convention is an Error frame with
// the connection kept open — frame boundaries are intact). The server
// itself never crashes on client input; the wire fuzz suite drives
// mutated frames at both transports to hold that line.
#pragma once

#include <atomic>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

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
  /// Serves one well-framed message; false = close the connection. Runs on
  /// the connection's handler thread; must contain its own exceptions
  /// except common::SocketError (a dead transport ends the connection).
  virtual bool dispatch(common::Socket& socket, const wire::Frame& frame) = 0;

  /// Called after the listener is bound and the accept loop is live.
  virtual void on_started() {}
  /// Called during stop(), after every connection handler has been joined
  /// and before running() flips false — join subclass workers here.
  virtual void on_stopping() {}

  /// Emits a typed Error frame, best-effort (the peer may be gone).
  void send_error(common::Socket& socket, wire::ErrorCode code,
                  const std::string& message) noexcept;

  /// Requests the serving loop to end (the in-band Shutdown path).
  void request_stop();

  const FrameServerConfig& server_config() const noexcept { return config_; }

 private:
  struct Connection {
    std::shared_ptr<common::Socket> socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void handle_connection(Connection& connection);
  void reap_finished_connections();
  std::string counter(const char* name) const;

  FrameServerConfig config_;
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
