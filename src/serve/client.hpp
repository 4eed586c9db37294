#pragma once

#include <array>
#include <cstddef>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "core/optimize.hpp"

/// \file client.hpp
/// The client side of the gcr_serve protocol: iostream adapters over a
/// POSIX file descriptor, and the one reader of framed replies (status
/// line, counted body, OPTIMIZE's streamed PASS lines).  The load
/// generator, the serve benches and the protocol tests all speak the
/// protocol through it, over any byte pipe — a pipe pair, one end of a
/// socketpair, or a TCP socket.  The server does not use it; its one
/// front-end is the epoll loop (src/net/).  The descriptor adapters are
/// POSIX-only (on other platforms construction throws); the reply reader
/// works on any std::istream.

namespace gcr::serve {

/// A std::streambuf reading from and writing to the same descriptor (the
/// socketpair case).  Use two instances for distinct read/write fds (the
/// stdin/stdout pipe case).  Does not own or close the descriptor.
class FdStreamBuf final : public std::streambuf {
 public:
  /// \p read_fd / \p write_fd may be -1 to disable that direction.
  FdStreamBuf(int read_fd, int write_fd);

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  bool flush_buffer();

  int read_fd_;
  int write_fd_;
  std::array<char, 8192> in_buf_{};
  std::array<char, 8192> out_buf_{};
};

/// A bidirectional stream pair over descriptors: `.in()` to read frames,
/// `.out()` to write them.  For a socketpair pass the same fd twice.
class FdTransport {
 public:
  FdTransport(int read_fd, int write_fd)
      : in_buf_(read_fd, -1), out_buf_(-1, write_fd),
        in_(&in_buf_), out_(&out_buf_) {}
  explicit FdTransport(int socket_fd) : FdTransport(socket_fd, socket_fd) {}

  [[nodiscard]] std::istream& in() noexcept { return in_; }
  [[nodiscard]] std::ostream& out() noexcept { return out_; }

 private:
  FdStreamBuf in_buf_;
  FdStreamBuf out_buf_;
  std::istream in_;
  std::ostream out_;
};

/// One reply line, classified: `OK <n> [meta]`, `ERR <reason>`, or an
/// OPTIMIZE progress line `PASS <i> wirelength=<w> overflow=<o>`.
struct StatusLine {
  enum class Kind { kOk, kErr, kPass, kMalformed };
  Kind kind = Kind::kMalformed;
  std::size_t body_bytes = 0;  ///< kOk: bytes of body that follow the line
  /// kOk: the meta after the byte count; kErr: the reason; kMalformed: why.
  std::string text;
  route::OptimizePassStats pass;  ///< kPass: pass, wirelength, overflow
};

/// Classifies one reply line (without its '\n'; a trailing '\r' is
/// ignored).  The one parser of the reply grammar: read_reply uses it, and
/// so can a non-blocking client that frames replies itself.
[[nodiscard]] StatusLine parse_status(std::string_view line);

/// One framed reply as a client sees it.
struct Reply {
  bool ok = false;      ///< an OK status line and its complete body
  /// The stream failed the protocol: EOF, a malformed status or PASS line,
  /// or a body shorter than its count.  An ERR reply is not broken.
  bool broken = false;
  std::string status;  ///< the status line, trailing '\r' dropped; "" at EOF
  std::string meta;    ///< OK: everything after `OK <n> `
  std::string body;
  /// The PASS lines streamed ahead of the status line (OPTIMIZE only).
  std::vector<route::OptimizePassStats> passes;
  std::string error;  ///< the ERR reason, or what broke the read
};

/// Reads one reply off \p in: any PASS lines, then the status line and its
/// counted body.
[[nodiscard]] Reply read_reply(std::istream& in);

/// Sends one request — \p line, a '\n', then \p body verbatim — and reads
/// its reply.
Reply call(std::ostream& out, std::istream& in, const std::string& line,
           const std::string& body = std::string());

/// `LOAD <n>` for a body of \p text: pass it to call() with \p text as the
/// body.  load_frame() is the same request as one string, for scripts.
[[nodiscard]] std::string load_command(const std::string& text);
[[nodiscard]] std::string load_frame(const std::string& text);

/// Raw value of `key=` in a meta (or whole status) string; "" when absent.
[[nodiscard]] std::string meta_token(const std::string& meta,
                                     const std::string& key);

/// Numeric value of `key=` in a meta string; -1 when absent or not
/// numeric.
[[nodiscard]] long long meta_value(const std::string& meta,
                                   const std::string& key);

}  // namespace gcr::serve
