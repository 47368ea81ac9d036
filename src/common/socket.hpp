// RAII stream sockets and the serving mesh's transport seam.
//
// The wire layer above (serve/wire.hpp) is length-prefixed and byte-exact,
// so it only needs three things from a transport: exact-length reads,
// exact-length writes, and a listener that can be polled with a timeout.
// This header provides them behind a transport-agnostic surface:
//
//   Endpoint   names where a peer lives — "unix:/path" or "tcp:host:port" —
//              parseable from CLI flags and printable for logs
//   Socket     one connected stream (either transport, either end)
//   Listener   the abstract accept seam; UnixListener and TcpListener are
//              the two implementations, make_listener() picks by endpoint
//   connect_endpoint / connect_with_backoff
//              dialing, including the mesh's bounded-exponential-backoff +
//              jitter policy for peers that are down *right now* (a shard
//              mid-restart) but expected back
//
// Everything follows the library's error discipline: syscall failures throw
// the typed SocketError; a clean EOF at a frame boundary is a normal
// return, an EOF mid-buffer is the caller's (wire-layer) problem and
// reported distinctly so it can become a SerializationError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

namespace goodones::common {

/// Thrown on socket syscall failures (socket/bind/listen/connect/poll/
/// send/recv) and on connect_with_backoff exhausting its attempts.
/// Malformed *content* on a healthy socket is the wire layer's domain and
/// throws SerializationError there instead.
class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& what) : std::runtime_error(what) {}
};

/// Where a serving peer lives. Two transports: Unix-domain stream sockets
/// (single-host IPC, the daemon's original front end) and TCP (the mesh's
/// cross-host transport). Value type; compare/print/parse freely.
class Endpoint {
 public:
  enum class Kind { kNone, kUnix, kTcp };

  Endpoint() = default;

  static Endpoint unix_socket(std::filesystem::path path);
  static Endpoint tcp(std::string host, std::uint16_t port);

  /// Parses "unix:<path>", "tcp:<host>:<port>" (port 0 = ephemeral, the
  /// resolved port is reported by Listener::endpoint()), or a bare path
  /// (treated as unix — the pre-mesh CLI shorthand). Throws SocketError on
  /// anything else (empty text, missing port, port out of range).
  static Endpoint parse(std::string_view text);

  Kind kind() const noexcept { return kind_; }
  bool empty() const noexcept { return kind_ == Kind::kNone; }

  /// Unix-only accessor (empty path otherwise).
  const std::filesystem::path& path() const noexcept { return path_; }
  /// TCP-only accessors (empty host / port 0 otherwise).
  const std::string& host() const noexcept { return host_; }
  std::uint16_t port() const noexcept { return port_; }

  /// Canonical text form ("unix:/run/x.sock", "tcp:127.0.0.1:7461") —
  /// parse(to_string()) round-trips.
  std::string to_string() const;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;

 private:
  Kind kind_ = Kind::kNone;
  std::filesystem::path path_;
  std::string host_;
  std::uint16_t port_ = 0;
};

/// One connected stream socket (either transport, either end). Move-only;
/// closes on destroy.
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` (-1 = empty).
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// Result of read_exact: kOk (buffer filled), kClosed (EOF before the
  /// first byte — the peer hung up cleanly between frames), kTruncated
  /// (EOF after some bytes — the peer died mid-frame).
  enum class ReadResult { kOk, kClosed, kTruncated };

  /// Blocks until exactly `n` bytes arrive (retrying on EINTR / short
  /// reads). Throws SocketError on syscall failure, including a receive
  /// timeout when one is set.
  ReadResult read_exact(void* data, std::size_t n);

  /// Blocks until all `n` bytes are sent (MSG_NOSIGNAL — a vanished peer
  /// surfaces as SocketError, never SIGPIPE). When a send timeout is set
  /// and the peer stops draining, throws SocketError instead of blocking
  /// forever.
  void write_all(const void* data, std::size_t n);

  /// Bounds how long one send may block on a peer that stopped reading
  /// (SO_SNDTIMEO). 0 = never time out (the default). A server sets this
  /// so a stalled client cannot wedge its writer thread — and therefore
  /// shutdown — indefinitely.
  void set_send_timeout_ms(int timeout_ms);

  /// Bounds how long one recv may block on a silent peer (SO_RCVTIMEO).
  /// 0 = never time out (the default). Health probes set this so a hung
  /// shard cannot wedge the prober; the timeout surfaces as SocketError.
  void set_recv_timeout_ms(int timeout_ms);

  /// Half-closes the read side so a peer thread blocked in read_exact
  /// observes EOF after its in-flight frame; the write side stays open so
  /// that thread can still flush its response. No-op on an empty socket.
  void shutdown_read() noexcept;

  /// Half-closes the write side: the peer observes EOF after draining what
  /// was already sent, while this end can still read its replies. The fuzz
  /// harness sends a (possibly truncated) byte stream, half-closes, and
  /// collects whatever the server answers. No-op on an empty socket.
  void shutdown_write() noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// The accept seam every frame server (serve::Daemon, serve::Router) binds
/// through: poll-with-timeout accept so an accept loop can observe a stop
/// flag without signals or a self-pipe. Obtain one via make_listener().
class Listener {
 public:
  virtual ~Listener() = default;

  /// Waits up to `timeout_ms` for a connection. Returns an empty Socket on
  /// timeout or after close(); throws SocketError on poll/accept failure.
  virtual Socket accept(int timeout_ms) = 0;

  /// Stops accepting (accept() returns empty from now on). Idempotent.
  virtual void close() noexcept = 0;

  /// The RESOLVED endpoint: for TCP bound with port 0, the kernel-assigned
  /// port (this is how tests and the mesh learn where a shard landed).
  virtual const Endpoint& endpoint() const noexcept = 0;
};

/// A bound + listening Unix-domain socket. Removes a stale socket file on
/// bind and unlinks its own file on destruction.
class UnixListener final : public Listener {
 public:
  explicit UnixListener(std::filesystem::path path);
  ~UnixListener() override;

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  const std::filesystem::path& path() const noexcept { return endpoint_.path(); }

  Socket accept(int timeout_ms) override;
  void close() noexcept override;
  const Endpoint& endpoint() const noexcept override { return endpoint_; }

 private:
  Endpoint endpoint_;
  int fd_ = -1;
};

/// A bound + listening TCP socket (SO_REUSEADDR so a restarted shard can
/// rebind its port immediately; TCP_NODELAY on accepted connections so
/// small request/reply frames are not Nagle-delayed). Binding port 0 picks
/// an ephemeral port; endpoint() reports the resolved one.
class TcpListener final : public Listener {
 public:
  TcpListener(const std::string& host, std::uint16_t port);
  explicit TcpListener(const Endpoint& endpoint);
  ~TcpListener() override;

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  Socket accept(int timeout_ms) override;
  void close() noexcept override;
  const Endpoint& endpoint() const noexcept override { return endpoint_; }

 private:
  Endpoint endpoint_;
  int fd_ = -1;
};

/// Binds a listener of the endpoint's transport. Throws SocketError when
/// the endpoint is empty or cannot be bound.
std::unique_ptr<Listener> make_listener(const Endpoint& endpoint);

/// Connects to a Unix-domain listener at `path`. Throws SocketError when
/// nothing is listening (or the path exceeds the sockaddr_un limit).
Socket connect_unix(const std::filesystem::path& path);

/// Connects to a TCP listener (numeric address or resolvable name;
/// TCP_NODELAY set). Throws SocketError when nothing is listening.
Socket connect_tcp(const std::string& host, std::uint16_t port);

/// Dials whatever transport the endpoint names. One attempt, no retries.
Socket connect_endpoint(const Endpoint& endpoint);

/// Reconnect policy for peers that are down *now* but expected back (a
/// shard mid-restart): bounded exponential backoff with jitter. The delay
/// doubles per failed attempt, and each sleep is scaled by 1 ± 0.2·u. The
/// jitter is deterministic per (endpoint, seed) — reproducible in tests —
/// while still de-synchronizing a fleet of clients hammering one
/// recovering shard (each client passes its own seed, or any nonzero salt).
struct BackoffConfig {
  int initial_delay_ms = 20;    ///< sleep before the 2nd attempt
  int max_delay_ms = 1000;      ///< exponential growth cap
  std::size_t max_attempts = 8; ///< total connect attempts before throwing
  std::uint64_t seed = 0;       ///< jitter stream salt (0 is fine)
};

/// Repeatedly dials `endpoint` under `config` until a connect succeeds or
/// max_attempts are exhausted (throws the last SocketError, annotated with
/// the attempt count). Total worst-case wait is the sum of the capped
/// exponential schedule — bounded by construction, never infinite.
Socket connect_with_backoff(const Endpoint& endpoint, const BackoffConfig& config);

}  // namespace goodones::common
