#pragma once

// The benchmark's side of the wire: a forked gcr_serve daemon and a blocking
// TCP client for its framed line protocol (see the README's protocol
// section).  The benchmark depends on the daemon's command line and wire
// format, not on its internals; only the socket helpers are shared.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace perfbench {

/// A gcr_serve process listening on a kernel-assigned localhost port.
/// The child is killed if the benchmark dies first (PR_SET_PDEATHSIG), and
/// the destructor stops it if stop() was never called.
class Daemon {
 public:
  /// Forks \p binary with `--listen 0` plus \p args, pinned to \p cpus
  /// (empty = not pinned), and waits for its "listening on
  /// 127.0.0.1:<port>" banner.  Throws on failure.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::vector<int>& cpus);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// SIGINT (graceful drain) and reap; SIGKILL after \p timeout_s.  True
  /// when the daemon drained and exited with status 0.
  bool stop(double timeout_s = 10.0);

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// One response frame: `OK <n> <meta>` + n body bytes, or `ERR <reason>`.
/// `progress` holds the lines streamed ahead of the frame (OPTIMIZE's
/// `PASS …` lines), newline-terminated, in arrival order.
struct Reply {
  bool ok = false;
  std::string meta;
  std::string body;
  std::string error;
  std::string progress;
};

/// A blocking localhost TCP connection with a read buffer.
class Conn {
 public:
  explicit Conn(std::uint16_t port);

  /// Sends \p line (a newline is appended) followed by \p body, then reads
  /// one reply.  Throws on a transport failure; protocol errors come back
  /// as `Reply::error`.
  Reply call(const std::string& line, const std::string& body = {});

 private:
  void send_all(const std::string& data);
  std::string read_line();
  std::string read_exact(std::size_t n);
  void fill();

  gcr::net::ScopedFd fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// Restricts the calling thread (and what it later forks or spawns) to
/// \p cpus; empty = no restriction.  False when the kernel refuses.
bool pin_to(const std::vector<int>& cpus);

/// Numeric value of `key=` in a meta line; -1 when absent.
[[nodiscard]] long long meta_value(const std::string& meta,
                                   const std::string& key);
/// Raw value of `key=` in a meta line; empty when absent.
[[nodiscard]] std::string meta_token(const std::string& meta,
                                     const std::string& key);

}  // namespace perfbench
