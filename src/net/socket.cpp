#include "net/socket.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#define GCR_NET_HAVE_POSIX 1
#else
#define GCR_NET_HAVE_POSIX 0
#endif

namespace gcr::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

#if GCR_NET_HAVE_POSIX

void ScopedFd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

NonblockingScope::NonblockingScope(int fd)
    : fd_(fd), flags_(::fcntl(fd, F_GETFL, 0)) {
  if (flags_ < 0 || ::fcntl(fd, F_SETFL, flags_ | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK) on descriptor " + std::to_string(fd));
  }
}

NonblockingScope::~NonblockingScope() { ::fcntl(fd_, F_SETFL, flags_); }

bool is_socket(int fd) noexcept {
  struct stat st {};
  return ::fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode);
}

namespace {

/// Fills a sockaddr_un for \p path, rejecting paths that do not fit.
sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("unix socket path unusable (empty or longer "
                             "than " +
                             std::to_string(sizeof addr.sun_path - 1) +
                             " bytes): '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Listener::Listener(std::uint16_t port, bool reuse_port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd) throw_errno("socket");
  const int one = 1;
  // REUSEADDR so a restarted daemon rebinds its port without waiting out
  // TIME_WAIT sockets from the previous incarnation's connections.
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) < 0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  if (reuse_port &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) < 0) {
    // Must be set before bind on every sharing socket: the kernel hashes
    // incoming connections across all listeners in the reuseport group.
    throw_errno("setsockopt(SO_REUSEPORT)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0) {
    throw_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd.get(), 128) < 0) throw_errno("listen");
  set_nonblocking(fd.get());
  // Read back the kernel-assigned port for the port=0 case.
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  fd_ = std::move(fd);
}

Listener Listener::unix_listener(const std::string& path) {
  const sockaddr_un addr = unix_addr(path);
  ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd) throw_errno("socket(AF_UNIX)");
  // A stale socket file from an unclean exit would make bind fail with
  // EADDRINUSE forever; remove it up front.  A live daemon on the same
  // path loses its listener either way — the path is the lock, and the
  // operator picked it.
  ::unlink(path.c_str());
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0) {
    throw_errno("bind unix:" + path);
  }
  if (::listen(fd.get(), 128) < 0) throw_errno("listen unix:" + path);
  set_nonblocking(fd.get());
  Listener out;
  out.fd_ = std::move(fd);
  out.path_ = path;
  return out;
}

Listener::~Listener() {
  if (!path_.empty()) ::unlink(path_.c_str());
}

Listener::Listener(Listener&& other) noexcept
    : fd_(std::move(other.fd_)),
      port_(other.port_),
      path_(std::move(other.path_)) {
  other.path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    if (!path_.empty()) ::unlink(path_.c_str());
    fd_ = std::move(other.fd_);
    port_ = other.port_;
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

ScopedFd Listener::accept_one() {
  for (;;) {
    const int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd >= 0) {
      ScopedFd out(fd);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      set_nonblocking(fd);
      // The protocol pipelines small frames; Nagle would add 40ms stalls
      // between a command and its response on an otherwise idle socket.
      // Harmlessly fails on AF_UNIX (no Nagle there to begin with).
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return out;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ScopedFd();
    // Transient per-connection failures (the peer gave up between the
    // kernel queueing it and us accepting it) are not listener failures.
    if (errno == ECONNABORTED || errno == EPROTO) continue;
    throw_errno("accept");
  }
}

ScopedFd tcp_connect(std::uint16_t port, int so_rcvbuf) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd) throw_errno("socket");
  if (so_rcvbuf > 0) {
    // Must precede connect: the receive buffer sizes the TCP window the
    // client advertises in its SYN.
    ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &so_rcvbuf,
                 sizeof so_rcvbuf);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) < 0) {
    throw_errno("connect 127.0.0.1:" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

ScopedFd unix_connect(const std::string& path) {
  const sockaddr_un addr = unix_addr(path);
  ScopedFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd) throw_errno("socket(AF_UNIX)");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) < 0) {
    throw_errno("connect unix:" + path);
  }
  return fd;
}

#else  // !GCR_NET_HAVE_POSIX

void ScopedFd::reset(int fd) noexcept { fd_ = fd; }

void set_nonblocking(int) {
  throw std::runtime_error("gcr::net requires a POSIX platform");
}

NonblockingScope::NonblockingScope(int fd) : fd_(fd), flags_(0) {
  throw std::runtime_error("gcr::net requires a POSIX platform");
}

NonblockingScope::~NonblockingScope() = default;

bool is_socket(int) noexcept { return false; }

Listener::Listener(std::uint16_t, bool) {
  throw std::runtime_error("gcr::net requires a POSIX platform");
}

Listener Listener::unix_listener(const std::string&) {
  throw std::runtime_error("gcr::net requires a POSIX platform");
}

Listener::~Listener() = default;
Listener::Listener(Listener&&) noexcept = default;
Listener& Listener::operator=(Listener&&) noexcept = default;

ScopedFd Listener::accept_one() { return ScopedFd(); }

ScopedFd tcp_connect(std::uint16_t, int) {
  throw std::runtime_error("gcr::net requires a POSIX platform");
}

ScopedFd unix_connect(const std::string&) {
  throw std::runtime_error("gcr::net requires a POSIX platform");
}

#endif  // GCR_NET_HAVE_POSIX

}  // namespace gcr::net
