#pragma once

#include <cstdint>
#include <string>
#include <utility>

/// \file socket.hpp
/// The thin POSIX layer under the network front-end: an owning descriptor,
/// non-blocking mode, and loopback TCP / unix-domain endpoints.  Everything
/// above this file (frame parser, connection state, event loop) is testable
/// without a kernel; everything below it is four syscalls.  POSIX-only — on
/// other platforms the constructors throw std::runtime_error.

namespace gcr::net {

/// An owning file descriptor (close-on-destroy, move-only).  -1 = empty.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) noexcept : fd_(fd) {}
  ~ScopedFd() { reset(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] explicit operator bool() const noexcept { return fd_ >= 0; }

  /// Relinquishes ownership without closing.
  int release() noexcept { return std::exchange(fd_, -1); }
  /// Closes the held descriptor (if any) and adopts \p fd.
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Puts \p fd into non-blocking mode; throws std::runtime_error on failure.
void set_nonblocking(int fd);

/// Holds a borrowed descriptor in non-blocking mode for its lifetime, then
/// restores the descriptor's original status flags.  The flags live on the
/// open file description, which an inherited pipe or a terminal shares
/// with the parent process, so they must not leak past the borrow.  Never
/// closes the descriptor.  Throws std::runtime_error when \p fd is unusable.
class NonblockingScope {
 public:
  explicit NonblockingScope(int fd);
  ~NonblockingScope();
  NonblockingScope(const NonblockingScope&) = delete;
  NonblockingScope& operator=(const NonblockingScope&) = delete;

 private:
  int fd_;
  int flags_;
};

/// True when \p fd is a socket (send() with MSG_NOSIGNAL applies).
[[nodiscard]] bool is_socket(int fd) noexcept;

/// A listening socket — the accept side of the epoll front-end.  Either a
/// loopback TCP socket (non-blocking, SO_REUSEADDR, optionally
/// SO_REUSEPORT for multi-reactor sharding) or a unix-domain socket bound
/// to a filesystem path (unlinked when the listener is destroyed).
class Listener {
 public:
  /// Binds 127.0.0.1:\p port (0 = kernel-assigned ephemeral port, see
  /// port()) and listens.  With \p reuse_port, SO_REUSEPORT is set before
  /// the bind so N reactors can each bind the same port and let the kernel
  /// distribute incoming connections across them — reactor 0 binds with
  /// port 0, the rest bind the resolved port.  Throws std::runtime_error
  /// on failure.
  explicit Listener(std::uint16_t port, bool reuse_port = false);

  /// Binds a unix-domain stream socket at \p path and listens.  A stale
  /// socket file at \p path is unlinked first (a previous unclean exit
  /// must not wedge the daemon); the path is unlinked again on
  /// destruction.  Throws std::runtime_error on failure.
  static Listener unix_listener(const std::string& path);

  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  /// The actually bound port — the one to advertise when constructed with
  /// 0.  Always 0 for a unix-domain listener.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// The bound filesystem path (unix-domain listeners only; else empty).
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Accepts one pending connection; returns an empty fd when none is
  /// pending (EAGAIN).  The accepted socket comes back non-blocking and
  /// close-on-exec.  Throws on unrecoverable accept errors.
  [[nodiscard]] ScopedFd accept_one();

 private:
  Listener() = default;

  ScopedFd fd_;
  std::uint16_t port_ = 0;
  std::string path_;  ///< non-empty = unix listener, unlink on destroy
};

/// Blocking loopback connect — the client side (load generator, tests).
/// \p so_rcvbuf > 0 shrinks the client's receive buffer *before* the
/// connect (it sizes the advertised TCP window), which is how the
/// backpressure tests make a "slow reader" deterministic: with a tiny
/// window the kernel cannot absorb responses on the client's behalf.
/// Throws std::runtime_error when the connection is refused.
[[nodiscard]] ScopedFd tcp_connect(std::uint16_t port, int so_rcvbuf = 0);

/// Blocking connect to a unix-domain listener at \p path.  Throws
/// std::runtime_error when the socket is absent or refuses.
[[nodiscard]] ScopedFd unix_connect(const std::string& path);

}  // namespace gcr::net
