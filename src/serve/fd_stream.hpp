#pragma once

#include <array>
#include <istream>
#include <ostream>
#include <streambuf>

/// \file fd_stream.hpp
/// Minimal iostream adapters over a POSIX file descriptor: the client side
/// of the protocol.  The load generator, the serve benches and the network
/// tests read and write frames through them over any byte pipe — a pipe
/// pair, one end of a socketpair, or a TCP socket.  The server does not use
/// them; its one front-end is the epoll loop (src/net/).  POSIX-only; on
/// other platforms construction throws.

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

}  // namespace gcr::serve
