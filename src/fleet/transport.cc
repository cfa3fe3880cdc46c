#include "src/fleet/transport.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/fleet/wire.h"

namespace tsvd::fleet {
namespace {

using campaign::Json;

constexpr char kUdsScheme[] = "uds:";
constexpr char kTcpScheme[] = "tcp:";

bool HasScheme(const std::string& address, const char* scheme) {
  return address.rfind(scheme, 0) == 0;
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// A parsed stream-socket endpoint: an AF_UNIX path, or a TCP host and port.
struct SocketAddress {
  bool unix_domain = false;
  std::string path;  // uds:
  std::string host;  // tcp: empty = wildcard (server) / 127.0.0.1 (client)
  std::string port;
  int backlog = 128;
  std::string label;  // the endpoint as error texts name it
};

bool ParseUdsAddress(const std::string& path, SocketAddress* out,
                     std::string* error) {
  if (path.size() >= sizeof(sockaddr_un::sun_path)) {
    *error = "socket path too long: " + path;
    return false;
  }
  out->unix_domain = true;
  out->path = path;
  out->label = path;
  return true;
}

// "<host>:<port>[?backlog=N]". The host may be a name, an IPv4 literal, or a
// bracketed IPv6 literal ("[::1]:7777"); the port is split at the *last* colon
// so unbracketed IPv6 literals fail loudly instead of mis-parsing.
bool ParseTcpAddress(const std::string& spec, SocketAddress* out,
                     std::string* error) {
  std::string rest = spec;
  const size_t query = rest.find('?');
  if (query != std::string::npos) {
    const std::string params = rest.substr(query + 1);
    rest.resize(query);
    if (params.rfind("backlog=", 0) == 0) {
      const long backlog = std::strtol(params.c_str() + 8, nullptr, 10);
      if (backlog <= 0 || backlog > 65535) {
        *error = "tcp address \"" + spec + "\": backlog must be in [1, 65535]";
        return false;
      }
      out->backlog = static_cast<int>(backlog);
    } else {
      *error = "tcp address \"" + spec + "\": unknown parameter \"" + params +
               "\" (want backlog=N)";
      return false;
    }
  }
  const size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon + 1 == rest.size()) {
    *error = "tcp address \"" + spec + "\": want host:port";
    return false;
  }
  out->host = rest.substr(0, colon);
  out->port = rest.substr(colon + 1);
  if (out->host.size() >= 2 && out->host.front() == '[' &&
      out->host.back() == ']') {
    out->host = out->host.substr(1, out->host.size() - 2);  // [::1] -> ::1
  }
  for (const char c : out->port) {
    if (c < '0' || c > '9') {
      *error = "tcp address \"" + spec + "\": port \"" + out->port +
               "\" is not a number";
      return false;
    }
  }
  out->label = "tcp:" + out->host + ":" + out->port;
  return true;
}

bool ParseAddress(const std::string& address, SocketAddress* out,
                  std::string* error) {
  if (HasScheme(address, kUdsScheme)) {
    return ParseUdsAddress(address.substr(sizeof(kUdsScheme) - 1), out, error);
  }
  if (HasScheme(address, kTcpScheme)) {
    return ParseTcpAddress(address.substr(sizeof(kTcpScheme) - 1), out, error);
  }
  *error = "unknown transport scheme in \"" + address + "\" (want uds: or tcp:)";
  return false;
}

sockaddr_un UnixSockaddr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

// The protocol is small request/response exchanges; Nagle would serialize them
// against delayed ACKs.
void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// A listening socket for `address`, or -1 with `error` set. TCP resolves the
// host (IPv4/IPv6/hostname; empty binds the wildcard) and sets SO_REUSEADDR so
// coordinator restarts need not wait out TIME_WAIT; uds replaces a previous
// server's stale endpoint.
int Listen(const SocketAddress& address, std::string* error) {
  if (address.unix_domain) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      *error = Errno("socket");
      return -1;
    }
    ::unlink(address.path.c_str());
    const sockaddr_un addr = UnixSockaddr(address.path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, address.backlog) != 0) {
      *error = Errno("bind/listen " + address.path);
      ::close(fd);
      return -1;
    }
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* results = nullptr;
  const int rc =
      ::getaddrinfo(address.host.empty() ? nullptr : address.host.c_str(),
                    address.port.c_str(), &hints, &results);
  if (rc != 0) {
    *error = "resolve " + address.host + ":" + address.port + ": " +
             ::gai_strerror(rc);
    return -1;
  }
  int listen_fd = -1;
  std::string last_error = "no usable address";
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd =
        ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (fd < 0) {
      last_error = Errno("socket");
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, address.backlog) != 0) {
      last_error = Errno("bind/listen " + address.host + ":" + address.port);
      ::close(fd);
      continue;
    }
    listen_fd = fd;
    break;
  }
  ::freeaddrinfo(results);
  if (listen_fd < 0) {
    *error = last_error;
  }
  return listen_fd;
}

// One connection attempt; -1 with `cause` set (without the endpoint name).
int ConnectOnce(const SocketAddress& address, std::string* cause) {
  if (address.unix_domain) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      *cause = Errno("socket");
      return -1;
    }
    const sockaddr_un addr = UnixSockaddr(address.path);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      *cause = std::strerror(errno);
      ::close(fd);
      return -1;
    }
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc =
      ::getaddrinfo(address.host.empty() ? "127.0.0.1" : address.host.c_str(),
                    address.port.c_str(), &hints, &results);
  if (rc != 0) {
    *cause = ::gai_strerror(rc);
    return -1;
  }
  int connected = -1;
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd =
        ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (fd < 0) {
      *cause = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      SetNoDelay(fd);
      connected = fd;
      break;
    }
    *cause = std::strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(results);
  return connected;
}

// One listener, one service thread per accepted connection, length-prefixed
// frames (wire.h) both ways.
class SocketServer : public TransportServer {
 public:
  explicit SocketServer(SocketAddress address) : address_(std::move(address)) {}
  ~SocketServer() override { Stop(); }

  bool Start(RequestHandler handler, std::string* error) override {
    listen_fd_ = Listen(address_, error);
    if (listen_fd_ < 0) {
      return false;
    }
    handler_ = std::move(handler);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return true;
  }

  void Stop() override {
    if (listen_fd_ < 0) {
      return;
    }
    stopping_.store(true, std::memory_order_relaxed);
    // shutdown wakes a blocked accept on Linux; closing alone need not.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) {
      accept_thread_.join();
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const int fd : conn_fds_) {
        ::shutdown(fd, SHUT_RDWR);
      }
    }
    for (std::thread& t : conn_threads_) {
      if (t.joinable()) {
        t.join();
      }
    }
    conn_threads_.clear();
    conn_fds_.clear();
    if (address_.unix_domain) {
      ::unlink(address_.path.c_str());
    }
  }

 private:
  void AcceptLoop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) {
          continue;
        }
        break;  // shutdown (or a fatal accept error): stop serving
      }
      if (!address_.unix_domain) {
        SetNoDelay(fd);
      }
      std::lock_guard<std::mutex> lock(mu_);
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
    }
  }

  void ServeConnection(int fd) {
    std::string payload;
    while (!stopping_.load(std::memory_order_relaxed)) {
      // A torn frame, an oversized length (garbage prefix), or any socket error
      // closes this connection; other connections keep serving.
      if (wire::RecvFrame(fd, &payload) != 1) {
        break;
      }
      Json request;
      Json response;
      if (Json::Parse(payload, &request)) {
        response = handler_(request);
      } else {
        response = Json::MakeObject();
        response.Set("type", "error");
        response.Set("error", "unparseable request");
      }
      if (!wire::SendFrame(fd, response.Dump())) {
        break;
      }
    }
    ::close(fd);
  }

  const SocketAddress address_;
  RequestHandler handler_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

class SocketClient : public TransportClient {
 public:
  explicit SocketClient(SocketAddress address) : address_(std::move(address)) {}
  ~SocketClient() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  void set_connect_timeout_ms(int ms) override { connect_timeout_ms_ = ms; }

  bool Call(const Json& request, Json* response, std::string* error) override {
    if (fd_ < 0 && !Connect(error)) {
      return false;
    }
    errno = 0;  // distinguish a clean peer close from a real socket error
    std::string payload;
    if (!wire::SendFrame(fd_, request.Dump()) ||
        wire::RecvFrame(fd_, &payload) != 1) {
      const int err = errno;  // captured before close can overwrite it
      // Sever the exchange: the next Call reconnects from scratch.
      ::close(fd_);
      fd_ = -1;
      *error = "coordinator connection lost (" + address_.label + "): " +
               (err != 0 ? std::strerror(err) : "connection closed by peer");
      return false;
    }
    if (!Json::Parse(payload, response)) {
      *error = "unparseable response from coordinator";
      return false;
    }
    return true;
  }

 private:
  bool Connect(std::string* error) {
    const Micros deadline =
        NowMicros() + static_cast<Micros>(connect_timeout_ms_) * 1000;
    std::string cause;
    while (true) {
      fd_ = ConnectOnce(address_, &cause);
      if (fd_ >= 0) {
        return true;
      }
      // The coordinator may simply not be listening yet (agents are often
      // spawned first, and across machines it may still be booting); retry
      // until the deadline.
      if (NowMicros() >= deadline) {
        *error = "connect " + address_.label + ": " + cause;
        return false;
      }
      SleepMicros(20'000);
    }
  }

  const SocketAddress address_;
  int connect_timeout_ms_ = 10'000;
  int fd_ = -1;
};

}  // namespace

std::unique_ptr<TransportServer> MakeTransportServer(const std::string& address,
                                                     std::string* error) {
  SocketAddress parsed;
  std::string parse_error;
  if (!ParseAddress(address, &parsed, &parse_error)) {
    if (error != nullptr) {
      *error = parse_error;
    }
    return nullptr;
  }
  return std::make_unique<SocketServer>(std::move(parsed));
}

std::unique_ptr<TransportClient> MakeTransportClient(const std::string& address,
                                                     std::string* error) {
  SocketAddress parsed;
  std::string parse_error;
  if (!ParseAddress(address, &parsed, &parse_error)) {
    if (error != nullptr) {
      *error = parse_error;
    }
    return nullptr;
  }
  return std::make_unique<SocketClient>(std::move(parsed));
}

std::unique_ptr<TransportClient> MakeInProcessClient(RequestHandler handler) {
  class InProcessClient : public TransportClient {
   public:
    explicit InProcessClient(RequestHandler handler)
        : handler_(std::move(handler)) {}
    bool Call(const Json& request, Json* response, std::string*) override {
      *response = handler_(request);
      return true;
    }
    void set_connect_timeout_ms(int) override {}

   private:
    const RequestHandler handler_;
  };
  return std::make_unique<InProcessClient>(std::move(handler));
}

}  // namespace tsvd::fleet
