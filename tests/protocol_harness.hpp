#pragma once

#include <gtest/gtest.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <string>
#include <thread>

#include "io/text_format.hpp"
#include "net/event_loop.hpp"
#include "serve/client.hpp"
#include "serve/routing_service.hpp"
#include "workload/netgen.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <unistd.h>
#endif

/// \file protocol_harness.hpp
/// The protocol suites' shared client side: scripted connections through
/// the server's one front-end, a framed-reply reader, and a TCP test
/// server.  The front-end needs Linux epoll; elsewhere its constructors
/// throw, and so does everything here that drives it.

namespace gcr::test {

/// A `standard_workload` layout as LOAD body text.
inline std::string workload_text(std::size_t cells, std::size_t nets,
                                 std::uint64_t seed) {
  return io::write_layout_string(
      workload::standard_workload(cells, 512, nets, seed));
}

/// One framed response, as serve::read_reply parses it.
using Frame = serve::Reply;

/// Reads one framed response off \p in; EOF, a malformed line or a
/// truncated body fails the test.
inline Frame next_frame(std::istream& in) {
  Frame f = serve::read_reply(in);
  EXPECT_FALSE(f.broken) << f.error << " (status: " << f.status << ")";
  return f;
}

/// Status line with the run-dependent timing meta chopped off, so two runs
/// of the same deterministic request compare equal.
inline std::string strip_timing(const std::string& status) {
  const std::size_t pos = status.find(" queue_us=");
  return pos == std::string::npos ? status : status.substr(0, pos);
}

#if defined(__unix__) || defined(__APPLE__)

/// write(2)s \p bytes to \p fd, then closes it; stops early if the reader
/// has gone.
inline void write_and_close(int fd, const std::string& bytes) {
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  ::close(fd);
}

/// Runs \p script through one connection of \p service exactly as
/// gcr_serve serves stdin/stdout: an event loop adopting two pipes, one
/// command at a time.  Helper threads write the script (a LOAD body may
/// outgrow any pipe buffer) and collect the replies.  Returns everything
/// the service wrote.
inline std::string run_script(serve::RoutingService& service,
                              const std::string& script) {
  int in[2];
  int out[2];
  if (::pipe(in) != 0) return "pipe: " + std::string(std::strerror(errno));
  if (::pipe(out) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    return "pipe: " + std::string(std::strerror(errno));
  }
  net::EventLoop loop(service, net::EventLoopOptions(), in[0], out[1]);
  std::thread writer([&] { write_and_close(in[1], script); });
  std::string output;
  std::thread reader([&] {
    char buf[64 * 1024];
    for (;;) {
      const ssize_t r = ::read(out[0], buf, sizeof buf);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      output.append(buf, static_cast<std::size_t>(r));
    }
  });
  loop.run();
  ::close(out[1]);
  reader.join();
  // Bytes after a QUIT are never read; drain them so the writer finishes.
  char sink[64 * 1024];
  while (::read(in[0], sink, sizeof sink) > 0) {
  }
  writer.join();
  ::close(in[0]);
  ::close(out[0]);
  return output;
}

#endif  // POSIX

#if defined(__linux__)

/// Sends all of \p bytes on socket \p fd.
inline void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << "send failed: " << std::strerror(errno);
    off += static_cast<std::size_t>(w);
  }
}

/// A RoutingService + listening EventLoop pair running on a background
/// thread.
class TestServer {
 public:
  explicit TestServer(
      const net::EventLoopOptions& lopts = net::EventLoopOptions(),
      const serve::RoutingService::Options& sopts =
          serve::RoutingService::Options())
      : service_(sopts), loop_(service_, lopts),
        thread_([this] { loop_.run(); }) {}

  ~TestServer() {
    loop_.stop();
    loop_.stop();  // force-close anything a test left dangling
    thread_.join();
  }

  TestServer(const TestServer&) = delete;
  TestServer& operator=(const TestServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return loop_.port(); }
  [[nodiscard]] serve::RoutingService& service() noexcept { return service_; }
  [[nodiscard]] const net::EventLoopStats& stats() const noexcept {
    return loop_.stats();
  }

 private:
  serve::RoutingService service_;
  net::EventLoop loop_;
  std::thread thread_;
};

#endif  // __linux__

}  // namespace gcr::test
