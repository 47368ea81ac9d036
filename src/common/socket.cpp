#include "common/socket.hpp"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/rng.hpp"

namespace goodones::common {

namespace {

[[noreturn]] void throw_errno(const char* op) {
  throw SocketError(std::string(op) + " failed: " + std::strerror(errno));
}

sockaddr_un make_address(const std::filesystem::path& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  const std::string text = path.string();
  if (text.size() >= sizeof(address.sun_path)) {
    throw SocketError("unix socket path too long (" + std::to_string(text.size()) +
                      " bytes, limit " + std::to_string(sizeof(address.sun_path) - 1) +
                      "): " + text);
  }
  std::memcpy(address.sun_path, text.c_str(), text.size() + 1);
  return address;
}

/// RAII for getaddrinfo results.
struct AddrInfoList {
  addrinfo* head = nullptr;
  ~AddrInfoList() {
    if (head != nullptr) ::freeaddrinfo(head);
  }
};

/// Resolves host:port for TCP. `passive` = resolve for bind() (AI_PASSIVE
/// semantics when the host is empty). Throws SocketError with the
/// gai_strerror detail on failure.
AddrInfoList resolve_tcp(const std::string& host, std::uint16_t port, bool passive) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  hints.ai_flags = AI_NUMERICSERV | (passive ? AI_PASSIVE : 0);
  AddrInfoList list;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(), service.c_str(),
                               &hints, &list.head);
  if (rc != 0) {
    throw SocketError("getaddrinfo for " + (host.empty() ? std::string("*") : host) + ":" +
                      service + " failed: " + ::gai_strerror(rc));
  }
  return list;
}

void set_nodelay(int fd) noexcept {
  // Best-effort: Nagle only costs latency, never correctness.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Reads back the port the kernel actually bound (port 0 = ephemeral).
std::uint16_t bound_port(int fd) {
  sockaddr_storage storage{};
  socklen_t length = sizeof(storage);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&storage), &length) != 0) {
    throw_errno("getsockname");
  }
  if (storage.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in&>(storage).sin_port);
  }
  if (storage.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6&>(storage).sin6_port);
  }
  throw SocketError("getsockname returned a non-IP family");
}

void set_timeout(int fd, int timeout_ms, int option, const char* what) {
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, option, &timeout, sizeof(timeout)) != 0) {
    throw SocketError(std::string("setsockopt(") + what + ") failed: " +
                      std::strerror(errno));
  }
}

/// Shared poll-accept for both listener transports.
Socket poll_accept(int fd, int timeout_ms, bool tcp) {
  if (fd < 0) return Socket();
  pollfd waiter{fd, POLLIN, 0};
  const int ready = ::poll(&waiter, 1, timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return Socket();
    throw_errno("poll");
  }
  if (ready == 0) return Socket();
  const int client = ::accept(fd, nullptr, nullptr);
  if (client < 0) {
    if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) return Socket();
    throw_errno("accept");
  }
  if (tcp) set_nodelay(client);
  return Socket(client);
}

}  // namespace

// --- Endpoint ----------------------------------------------------------------

Endpoint Endpoint::unix_socket(std::filesystem::path path) {
  Endpoint endpoint;
  endpoint.kind_ = Kind::kUnix;
  endpoint.path_ = std::move(path);
  return endpoint;
}

Endpoint Endpoint::tcp(std::string host, std::uint16_t port) {
  Endpoint endpoint;
  endpoint.kind_ = Kind::kTcp;
  endpoint.host_ = std::move(host);
  endpoint.port_ = port;
  return endpoint;
}

Endpoint Endpoint::parse(std::string_view text) {
  if (text.empty()) throw SocketError("endpoint: empty address");
  if (text.rfind("unix:", 0) == 0) {
    const std::string_view path = text.substr(5);
    if (path.empty()) throw SocketError("endpoint: unix: needs a path");
    return unix_socket(std::filesystem::path(path));
  }
  if (text.rfind("tcp:", 0) == 0) {
    const std::string_view rest = text.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos || colon == 0 || colon + 1 == rest.size()) {
      throw SocketError("endpoint: tcp: needs host:port, got \"" + std::string(text) +
                        "\"");
    }
    const std::string_view port_text = rest.substr(colon + 1);
    unsigned port = 0;
    const auto [end, error] =
        std::from_chars(port_text.data(), port_text.data() + port_text.size(), port);
    if (error != std::errc() || end != port_text.data() + port_text.size() ||
        port > 65535) {
      throw SocketError("endpoint: bad tcp port \"" + std::string(port_text) + "\"");
    }
    return tcp(std::string(rest.substr(0, colon)), static_cast<std::uint16_t>(port));
  }
  // Bare text: the pre-mesh shorthand — a unix socket path.
  return unix_socket(std::filesystem::path(text));
}

std::string Endpoint::to_string() const {
  switch (kind_) {
    case Kind::kNone:
      return "<none>";
    case Kind::kUnix:
      return "unix:" + path_.string();
    case Kind::kTcp:
      return "tcp:" + host_ + ":" + std::to_string(port_);
  }
  return "<none>";
}

// --- Socket ------------------------------------------------------------------

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Socket::ReadResult Socket::read_exact(void* data, std::size_t n) {
  if (fd_ < 0) throw SocketError("read on a closed socket");
  auto* cursor = static_cast<char*>(data);
  std::size_t remaining = n;
  while (remaining > 0) {
    const ssize_t got = ::recv(fd_, cursor, remaining, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw SocketError("recv timed out: peer went silent mid-exchange");
      }
      throw_errno("recv");
    }
    if (got == 0) {
      return remaining == n ? ReadResult::kClosed : ReadResult::kTruncated;
    }
    cursor += got;
    remaining -= static_cast<std::size_t>(got);
  }
  return ReadResult::kOk;
}

void Socket::write_all(const void* data, std::size_t n) {
  if (fd_ < 0) throw SocketError("write on a closed socket");
  const auto* cursor = static_cast<const char*>(data);
  std::size_t remaining = n;
  while (remaining > 0) {
    const ssize_t sent = ::send(fd_, cursor, remaining, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw SocketError("send timed out: peer stopped draining the socket");
      }
      throw_errno("send");
    }
    cursor += sent;
    remaining -= static_cast<std::size_t>(sent);
  }
}

void Socket::set_send_timeout_ms(int timeout_ms) {
  if (fd_ < 0) throw SocketError("set_send_timeout_ms on a closed socket");
  set_timeout(fd_, timeout_ms, SO_SNDTIMEO, "SO_SNDTIMEO");
}

void Socket::set_recv_timeout_ms(int timeout_ms) {
  if (fd_ < 0) throw SocketError("set_recv_timeout_ms on a closed socket");
  set_timeout(fd_, timeout_ms, SO_RCVTIMEO, "SO_RCVTIMEO");
}

void Socket::shutdown_read() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_write() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --- dialing -----------------------------------------------------------------

Socket connect_unix(const std::filesystem::path& path) {
  const sockaddr_un address = make_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket socket(fd);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    if (errno == EINTR) continue;
    throw SocketError("connect to " + path.string() + " failed: " + std::strerror(errno));
  }
  return socket;
}

Socket connect_tcp(const std::string& host, std::uint16_t port) {
  const AddrInfoList resolved = resolve_tcp(host, port, /*passive=*/false);
  std::string last_error = "no addresses resolved";
  for (const addrinfo* info = resolved.head; info != nullptr; info = info->ai_next) {
    const int fd = ::socket(info->ai_family, info->ai_socktype, info->ai_protocol);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    Socket socket(fd);
    int rc;
    do {
      rc = ::connect(fd, info->ai_addr, info->ai_addrlen);
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) {
      set_nodelay(fd);
      return socket;
    }
    last_error = std::string("connect: ") + std::strerror(errno);
  }
  throw SocketError("connect to tcp:" + host + ":" + std::to_string(port) +
                    " failed: " + last_error);
}

Socket connect_endpoint(const Endpoint& endpoint) {
  switch (endpoint.kind()) {
    case Endpoint::Kind::kUnix:
      return connect_unix(endpoint.path());
    case Endpoint::Kind::kTcp:
      return connect_tcp(endpoint.host(), endpoint.port());
    case Endpoint::Kind::kNone:
      break;
  }
  throw SocketError("connect to an empty endpoint");
}

Socket connect_with_backoff(const Endpoint& endpoint, const BackoffConfig& config) {
  constexpr double kMultiplier = 2.0;  // delay growth per failed attempt
  constexpr double kJitter = 0.2;      // each sleep is scaled by 1 ± kJitter·u
  if (config.max_attempts == 0) {
    throw SocketError("connect_with_backoff: max_attempts must be >= 1");
  }
  // Deterministic jitter stream: reproducible under a fixed seed, and a
  // fleet of clients with distinct seeds spreads its retries apart.
  std::uint64_t jitter_state = config.seed ^ 0x6d657368u;  // "mesh"
  for (const char c : endpoint.to_string()) {
    jitter_state = jitter_state * 1099511628211ull + static_cast<unsigned char>(c);
  }
  double delay_ms = static_cast<double>(config.initial_delay_ms);
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      return connect_endpoint(endpoint);
    } catch (const SocketError& error) {
      if (attempt >= config.max_attempts) {
        throw SocketError(std::string(error.what()) + " (after " +
                          std::to_string(attempt) + " attempts with backoff)");
      }
      // 1 + kJitter·u with u uniform in [-1, 1): full-jitter stampedes,
      // but bounded so the worst-case total wait stays predictable.
      const double u =
          2.0 * (static_cast<double>(splitmix64_next(jitter_state) >> 11) * 0x1.0p-53) -
          1.0;
      const double jittered = delay_ms * (1.0 + kJitter * u);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long>(jittered < 1.0 ? 1.0 : jittered)));
      delay_ms = delay_ms * kMultiplier;
      if (delay_ms > config.max_delay_ms) delay_ms = config.max_delay_ms;
    }
  }
}

// --- UnixListener ------------------------------------------------------------

UnixListener::UnixListener(std::filesystem::path path)
    : endpoint_(Endpoint::unix_socket(std::move(path))) {
  const sockaddr_un address = make_address(endpoint_.path());
  // A stale file from a crashed daemon would make bind fail; a *live*
  // daemon is indistinguishable from a stale file here, so ownership of
  // the path is the deployment's contract (one daemon per socket path).
  std::error_code ignored;
  std::filesystem::remove(endpoint_.path(), ignored);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw SocketError("bind to " + endpoint_.path().string() +
                      " failed: " + std::strerror(saved));
  }
  if (::listen(fd_, SOMAXCONN) != 0) {
    const int saved = errno;
    close();
    throw SocketError("listen on " + endpoint_.path().string() +
                      " failed: " + std::strerror(saved));
  }
}

UnixListener::~UnixListener() { close(); }

Socket UnixListener::accept(int timeout_ms) {
  return poll_accept(fd_, timeout_ms, /*tcp=*/false);
}

void UnixListener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    std::error_code ignored;
    std::filesystem::remove(endpoint_.path(), ignored);
  }
}

// --- TcpListener -------------------------------------------------------------

TcpListener::TcpListener(const std::string& host, std::uint16_t port)
    : endpoint_(Endpoint::tcp(host, port)) {
  const AddrInfoList resolved = resolve_tcp(host, port, /*passive=*/true);
  std::string last_error = "no addresses resolved";
  for (const addrinfo* info = resolved.head; info != nullptr; info = info->ai_next) {
    const int fd = ::socket(info->ai_family, info->ai_socktype, info->ai_protocol);
    if (fd < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    // SO_REUSEADDR: a restarted shard must rebind its port immediately,
    // not wait out TIME_WAIT from its previous life.
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, info->ai_addr, info->ai_addrlen) != 0 || ::listen(fd, SOMAXCONN) != 0) {
      last_error = std::string("bind/listen: ") + std::strerror(errno);
      ::close(fd);
      continue;
    }
    fd_ = fd;
    endpoint_ = Endpoint::tcp(host, bound_port(fd_));
    return;
  }
  throw SocketError("bind to " + endpoint_.to_string() + " failed: " + last_error);
}

TcpListener::TcpListener(const Endpoint& endpoint)
    : TcpListener(endpoint.host(), endpoint.port()) {}

TcpListener::~TcpListener() { close(); }

Socket TcpListener::accept(int timeout_ms) {
  return poll_accept(fd_, timeout_ms, /*tcp=*/true);
}

void TcpListener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::unique_ptr<Listener> make_listener(const Endpoint& endpoint) {
  switch (endpoint.kind()) {
    case Endpoint::Kind::kUnix:
      return std::make_unique<UnixListener>(endpoint.path());
    case Endpoint::Kind::kTcp:
      return std::make_unique<TcpListener>(endpoint);
    case Endpoint::Kind::kNone:
      break;
  }
  throw SocketError("listen on an empty endpoint");
}

}  // namespace goodones::common
