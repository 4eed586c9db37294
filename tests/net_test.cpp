// Tests for the network front-end: the incremental frame parser (split
// input, pipelining, oversize/overlong/fatal hardening), and the epoll
// event loop end-to-end over real TCP sockets — byte-by-byte frames,
// pipelined commands in one segment, slow-reader backpressure (suspension
// and hard-cap drop), disconnect-mid-route cancellation, and a
// many-clients smoke test asserting every client gets a correct,
// uninterleaved response stream.

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/netlist_router.hpp"
#include "core/optimize.hpp"
#include "io/route_dump.hpp"
#include "io/text_format.hpp"
#include "net/event_loop.hpp"
#include "net/reactor_pool.hpp"
#include "net/socket.hpp"
#include "protocol_harness.hpp"
#include "serve/client.hpp"
#include "serve/frame_parser.hpp"
#include "serve/layout_session.hpp"
#include "serve/protocol.hpp"
#include "serve/routing_service.hpp"
#include "workload/netgen.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using namespace gcr;
using Event = serve::FrameParser::Event;
using Kind = serve::FrameParser::EventKind;

// ------------------------------------------------------------ frame parser

std::vector<Event> feed_all(serve::FrameParser& p, const std::string& bytes,
                            std::size_t chunk = SIZE_MAX) {
  std::vector<Event> out;
  for (std::size_t i = 0; i < bytes.size(); i += chunk) {
    p.feed(bytes.data() + i, std::min(chunk, bytes.size() - i), out);
  }
  return out;
}

TEST(FrameParser, OneByteAtATime) {
  serve::FrameParser p;
  const auto events = feed_all(p, "ROUTE abc threads=2\r\n", 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, Kind::kCommand);
  EXPECT_EQ(events[0].line, "ROUTE abc threads=2");  // CR stripped
  EXPECT_TRUE(events[0].body.empty());
}

TEST(FrameParser, PipelinedCommandsInOneFeed) {
  serve::FrameParser p;
  const auto events = feed_all(p, "STATS\n\n  \nQUIT\n");
  ASSERT_EQ(events.size(), 2u);  // blank lines are keep-alives, no event
  EXPECT_EQ(events[0].line, "STATS");
  EXPECT_EQ(events[1].line, "QUIT");
}

TEST(FrameParser, LoadBodySplitAcrossFeeds) {
  serve::FrameParser p;
  std::vector<Event> out;
  p.feed("LOAD 5\nab", 9, out);
  EXPECT_TRUE(out.empty());  // body incomplete: nothing emitted yet
  EXPECT_EQ(p.buffered(), 2u);
  p.feed("cdeSTATS\n", 9, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, Kind::kCommand);
  EXPECT_EQ(out[0].line, "LOAD 5");
  EXPECT_EQ(out[0].body, "abcde");
  EXPECT_EQ(out[1].line, "STATS");
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(FrameParser, ZeroByteLoad) {
  serve::FrameParser p;
  const auto events = feed_all(p, "LOAD 0\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].line, "LOAD 0");
  EXPECT_TRUE(events[0].body.empty());
}

TEST(FrameParser, OverlongLineDiscardedAndBounded) {
  serve::FrameParser::Options opts;
  opts.max_line = 16;
  serve::FrameParser p(opts);
  const std::string garbage(100, 'a');
  const auto events = feed_all(p, garbage + "\nSTATS\n", 7);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, Kind::kOverlongLine);
  EXPECT_NE(events[0].error.find("exceeds 16 bytes"), std::string::npos);
  EXPECT_EQ(events[1].kind, Kind::kCommand);
  EXPECT_EQ(events[1].line, "STATS");
  EXPECT_LE(p.buffered(), opts.max_line);
}

TEST(FrameParser, NeverendingLineStaysBounded) {
  // The attack the cap exists for: a peer streaming bytes with no LF must
  // not grow the parser's memory.
  serve::FrameParser::Options opts;
  opts.max_line = 64;
  serve::FrameParser p(opts);
  std::vector<Event> out;
  const std::string chunk(1024, 'x');
  for (int i = 0; i < 64; ++i) {
    p.feed(chunk.data(), chunk.size(), out);
    EXPECT_LE(p.buffered(), opts.max_line);
  }
  ASSERT_EQ(out.size(), 1u);  // reported once, then silently discarded
  EXPECT_EQ(out[0].kind, Kind::kOverlongLine);
}

TEST(FrameParser, OversizeLoadSkippedWithoutBuffering) {
  serve::FrameParser::Options opts;
  opts.max_load = 8;
  serve::FrameParser p(opts);
  const std::string body(100, 'b');
  const auto events = feed_all(p, "LOAD 100\n" + body + "STATS\n", 11);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, Kind::kOversizeLoad);
  EXPECT_EQ(events[1].kind, Kind::kCommand);
  EXPECT_EQ(events[1].line, "STATS");
  EXPECT_LE(p.buffered(), opts.max_line);
}

TEST(FrameParser, UnparsableLoadCountIsFatal) {
  serve::FrameParser p;
  std::vector<Event> out;
  EXPECT_FALSE(p.feed("LOAD banana\nQUIT\n", 17, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, Kind::kFatal);
  EXPECT_NE(out[0].error.find("out of sync"), std::string::npos);
  EXPECT_TRUE(p.dead());
  // Bytes after the fatal frame are ignored: the stream position is lost.
  EXPECT_FALSE(p.feed("STATS\n", 6, out));
  EXPECT_EQ(out.size(), 1u);
}

TEST(FrameParser, FinishEofFlushesTrailingLine) {
  // A final line the peer never LF-terminated is still a command: the EOF
  // flush hands it over on both front-ends.
  serve::FrameParser p;
  std::vector<Event> out;
  p.feed("STATS", 5, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(p.finish_eof(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, Kind::kCommand);
  EXPECT_EQ(out[0].line, "STATS");
  EXPECT_TRUE(p.dead());
}

TEST(FrameParser, FinishEofReportsTruncatedLoadBody) {
  serve::FrameParser p;
  std::vector<Event> out;
  p.feed("LOAD 10\nabc", 11, out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(p.finish_eof(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, Kind::kFatal);
  EXPECT_NE(out[0].error.find("truncated"), std::string::npos);
  // Clean EOF at a frame boundary flushes nothing.
  serve::FrameParser q;
  std::vector<Event> none;
  q.feed("STATS\n", 6, none);
  none.clear();
  EXPECT_TRUE(q.finish_eof(none));
  EXPECT_TRUE(none.empty());
}

// --------------------------------------------------------------- event loop
//
// Real sockets, real epoll: these run only where the front-end exists.

#if defined(__linux__)

constexpr bool kHaveEventLoop = true;

using test::Frame;
using test::next_frame;
using test::send_all;
using test::TestServer;
using test::workload_text;

using serve::load_frame;

TEST(EventLoop, SplitFramesOneByteWrites) {
  TestServer server;
  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());

  const std::string text = workload_text(9, 12, 3);
  const std::string script = load_frame(text) + "STATS\nQUIT\n";
  for (const char c : script) {
    send_all(sock.get(), std::string(1, c));
  }
  const Frame load = next_frame(transport.in());
  EXPECT_EQ(load.status.rfind("OK 0 session=", 0), 0u) << load.status;
  const Frame stats = next_frame(transport.in());
  EXPECT_EQ(stats.status.rfind("OK ", 0), 0u);
  EXPECT_NE(stats.body.find("requests_submitted"), std::string::npos);
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
}

TEST(EventLoop, PipelinedCommandsInOneSegment) {
  TestServer server;
  const std::string text = workload_text(9, 12, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult reference =
      route::NetlistRouter(lay).route_all();
  const std::string key = serve::SessionCache::content_key(text);

  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());

  // One TCP segment carrying four commands: the responses must come back
  // complete, correct, and in request order.
  send_all(sock.get(), load_frame(text) + "ROUTE " + key + "\nSTATS\nQUIT\n");

  const Frame load = next_frame(transport.in());
  EXPECT_NE(load.status.find("session=" + key), std::string::npos);
  const Frame route = next_frame(transport.in());
  ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
  const route::NetlistResult parsed = io::read_routes_string(route.body, lay);
  EXPECT_EQ(parsed.total_wirelength, reference.total_wirelength);
  EXPECT_EQ(parsed.routed, reference.routed);
  const Frame stats = next_frame(transport.in());
  // STATS *executes* at dispatch — possibly while the pipelined ROUTE is
  // still on a worker — so assert on the submission counter, which is
  // bumped synchronously before STATS runs.  Its *response* still arrives
  // strictly after the ROUTE response (sequencing), which read order here
  // has already proven.
  EXPECT_NE(stats.body.find("requests_submitted 1"), std::string::npos)
      << stats.body;
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
  // After QUIT's response the server closes: clean EOF, not a reset.
  char c = 0;
  EXPECT_EQ(::recv(sock.get(), &c, 1, 0), 0);
}

TEST(EventLoop, TrailingLineWithoutNewlineServedOnHalfClose) {
  // A client that sends its last command without a newline and
  // half-closes still gets its response, as over a pipe.
  TestServer server;
  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());
  send_all(sock.get(), "STATS");  // no LF
  ASSERT_EQ(::shutdown(sock.get(), SHUT_WR), 0);
  const Frame stats = next_frame(transport.in());
  EXPECT_EQ(stats.status.rfind("OK ", 0), 0u) << stats.status;
  EXPECT_NE(stats.body.find("requests_submitted"), std::string::npos);
  char c = 0;
  EXPECT_EQ(::recv(sock.get(), &c, 1, 0), 0);  // then a clean close
}

TEST(EventLoop, ErrorsAndHardeningOverTcp) {
  TestServer server;
  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());

  // Unknown command with embedded control bytes: the echo must be clamped.
  send_all(sock.get(), "NO\x1b[31mPE\n");
  const Frame err = next_frame(transport.in());
  EXPECT_EQ(err.status.rfind("ERR ", 0), 0u);
  EXPECT_EQ(err.status.find('\x1b'), std::string::npos);

  // Overlong command line: ERR, then the connection keeps serving.
  send_all(sock.get(),
           std::string(serve::kMaxCommandLine + 10, 'z') + "\nSTATS\n");
  const Frame overlong = next_frame(transport.in());
  EXPECT_NE(overlong.status.find("exceeds"), std::string::npos);
  const Frame stats = next_frame(transport.in());
  EXPECT_EQ(stats.status.rfind("OK ", 0), 0u);

  // Unparsable LOAD count: ERR, then the server closes the connection.
  send_all(sock.get(), "LOAD banana\nSTATS\n");
  const Frame fatal = next_frame(transport.in());
  EXPECT_NE(fatal.status.find("out of sync"), std::string::npos);
  char c = 0;
  EXPECT_EQ(::recv(sock.get(), &c, 1, 0), 0);  // EOF, no STATS response
}

TEST(EventLoop, ManyClientsEachGetCorrectUninterleavedResponses) {
  serve::RoutingService::Options sopts;
  sopts.workers = 4;
  sopts.queue_capacity = 256;
  TestServer server(net::EventLoopOptions(), sopts);

  const std::string text = workload_text(9, 12, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult reference =
      route::NetlistRouter(lay).route_all();
  const std::string key = serve::SessionCache::content_key(text);

  constexpr std::size_t kClients = 16;
  constexpr std::size_t kPerClient = 3;
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const net::ScopedFd sock = net::tcp_connect(server.port());
      serve::FdTransport transport(sock.get());
      // Pipeline everything in one shot, then read all responses back.
      std::string script = load_frame(text);
      for (std::size_t q = 0; q < kPerClient; ++q) {
        script += "ROUTE " + key + "\n";
      }
      script += "QUIT\n";
      send_all(sock.get(), script);

      const Frame load = next_frame(transport.in());
      if (load.status.rfind("OK 0 session=" + key, 0) != 0) ++mismatches[c];
      for (std::size_t q = 0; q < kPerClient; ++q) {
        const Frame route = next_frame(transport.in());
        if (route.status.rfind("OK ", 0) != 0) {
          ++mismatches[c];
          continue;
        }
        try {
          const route::NetlistResult parsed =
              io::read_routes_string(route.body, lay);
          if (parsed.total_wirelength != reference.total_wirelength ||
              parsed.routed != reference.routed) {
            ++mismatches[c];
          }
        } catch (const std::exception&) {
          ++mismatches[c];  // interleaved/corrupt body would not parse
        }
      }
      const Frame bye = next_frame(transport.in());
      if (bye.status != "OK 0 bye") ++mismatches[c];
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[c], 0) << "client " << c;
  }
  EXPECT_EQ(server.stats().accepted.load(), kClients);
  EXPECT_EQ(server.service().snapshot().requests_ok, kClients * kPerClient);
}

TEST(EventLoop, SlowReaderIsSuspendedThenServedOnceItDrains) {
  net::EventLoopOptions lopts;
  lopts.write_high_water = 2048;   // a couple of route dumps
  lopts.write_hard_cap = 64 << 20;  // never dropped in this test
  lopts.so_sndbuf = 1;  // minimal kernel buffering: the marks must bite
  serve::RoutingService::Options sopts;
  sopts.workers = 2;
  sopts.queue_capacity = 256;
  TestServer server(lopts, sopts);

  const std::string text = workload_text(9, 12, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult reference =
      route::NetlistRouter(lay).route_all();
  const std::string key = serve::SessionCache::content_key(text);

  // A deliberately slow reader: a minimal receive window, so the kernel
  // cannot absorb responses on this client's behalf — they must pile up in
  // the server's user-space backlog where the marks can see them.
  const net::ScopedFd sock = net::tcp_connect(server.port(), 1);
  serve::FdTransport transport(sock.get());

  // Pipeline far more responses than the high-water mark holds, without
  // reading any of them.
  constexpr std::size_t kRequests = 24;
  std::string script = load_frame(text);
  for (std::size_t q = 0; q < kRequests; ++q) {
    script += "ROUTE " + key + "\n";
  }
  send_all(sock.get(), script);

  // The server must hit the high-water mark and suspend this connection's
  // reads rather than buffer without bound.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (server.stats().reads_suspended.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(server.stats().reads_suspended.load(), 0u);
  EXPECT_EQ(server.stats().dropped_slow.load(), 0u);

  // Now drain like a healthy client: every response arrives, in order.
  const Frame load = next_frame(transport.in());
  EXPECT_EQ(load.status.rfind("OK 0 session=", 0), 0u);
  for (std::size_t q = 0; q < kRequests; ++q) {
    const Frame route = next_frame(transport.in());
    ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << "request " << q;
    const route::NetlistResult parsed =
        io::read_routes_string(route.body, lay);
    EXPECT_EQ(parsed.total_wirelength, reference.total_wirelength);
  }
  send_all(sock.get(), "QUIT\n");
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
}

TEST(EventLoop, SynchronousCommandBurstIsDeferredNotDropped) {
  // One TCP segment carrying hundreds of cheap synchronously-answered
  // commands: their responses alone would blow far past the hard cap if
  // dispatched eagerly.  The loop must park the surplus (bounding the
  // backlog) and serve every command once the client drains — a healthy
  // fast reader must never hit the slow-reader drop path.
  net::EventLoopOptions lopts;
  lopts.write_high_water = 2048;  // a handful of STATS bodies
  lopts.write_hard_cap = 8192;
  TestServer server(lopts);

  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());

  constexpr std::size_t kBurst = 300;  // ~450 B/response >> hard cap
  std::string script;
  for (std::size_t q = 0; q < kBurst; ++q) script += "STATS\n";
  script += "QUIT\n";
  send_all(sock.get(), script);

  for (std::size_t q = 0; q < kBurst; ++q) {
    const Frame stats = next_frame(transport.in());
    ASSERT_EQ(stats.status.rfind("OK ", 0), 0u) << "response " << q;
    ASSERT_NE(stats.body.find("requests_submitted"), std::string::npos);
  }
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
  EXPECT_EQ(server.stats().dropped_slow.load(), 0u);
  EXPECT_GT(server.stats().reads_suspended.load(), 0u);
  EXPECT_EQ(server.stats().commands.load(), kBurst + 1);
}

TEST(EventLoop, SlowReaderBeyondHardCapIsDropped) {
  net::EventLoopOptions lopts;
  lopts.write_high_water = 1024;
  lopts.write_hard_cap = 4096;  // a few dumps overflow this
  lopts.so_sndbuf = 1;          // minimal kernel buffering
  serve::RoutingService::Options sopts;
  sopts.workers = 2;
  sopts.queue_capacity = 256;
  TestServer server(lopts, sopts);

  const std::string text = workload_text(9, 12, 7);
  const std::string key = serve::SessionCache::content_key(text);

  const net::ScopedFd sock = net::tcp_connect(server.port(), 1);
  std::string script = load_frame(text);
  for (std::size_t q = 0; q < 32; ++q) {
    script += "ROUTE " + key + "\n";
  }
  send_all(sock.get(), script);

  // Never read: responses accumulate past the hard cap and the server must
  // cut this connection loose.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (server.stats().dropped_slow.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server.stats().dropped_slow.load(), 1u);

  // The server itself must stay healthy for other clients.
  const net::ScopedFd probe = net::tcp_connect(server.port());
  serve::FdTransport transport(probe.get());
  send_all(probe.get(), "STATS\nQUIT\n");
  const Frame stats = next_frame(transport.in());
  EXPECT_EQ(stats.status.rfind("OK ", 0), 0u);
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
}

TEST(EventLoop, FailFastRouteBurstIsBoundedAndServed) {
  // ROUTEs that fail at admission (unknown session) complete inline and
  // park their ERR frames in the wakeup mailbox, where the *byte* marks
  // cannot see them.  A single segment of thousands of such commands must
  // hit the per-connection in-flight cap — parking the surplus instead of
  // growing the mailbox without bound — and still answer every one, in
  // order.
  TestServer server;  // default max_inflight = 256

  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());

  constexpr std::size_t kBurst = 2000;
  std::string script;
  for (std::size_t q = 0; q < kBurst; ++q) {
    script += "ROUTE feedfacefeedface\n";
  }
  script += "QUIT\n";
  send_all(sock.get(), script);

  for (std::size_t q = 0; q < kBurst; ++q) {
    const Frame err = next_frame(transport.in());
    ASSERT_EQ(err.status.rfind("ERR session_not_found", 0), 0u)
        << "response " << q << ": " << err.status;
  }
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
  EXPECT_GT(server.stats().reads_suspended.load(), 0u)
      << "the in-flight cap should have parked the burst's tail";
  EXPECT_EQ(server.stats().dropped_slow.load(), 0u);
  EXPECT_EQ(server.service().snapshot().requests_not_found, kBurst);
}

TEST(EventLoop, DisconnectMidRouteCancelsQueuedWork) {
  serve::RoutingService::Options sopts;
  sopts.workers = 1;  // serialize routing so most requests sit queued
  sopts.queue_capacity = 64;
  TestServer server(net::EventLoopOptions(), sopts);

  // A workload slow enough (~tens of ms a route) that the disconnect lands
  // while requests are still queued.
  const std::string text = workload_text(25, 40, 105);
  const std::string key = serve::SessionCache::content_key(text);

  constexpr std::size_t kRequests = 8;
  {
    const net::ScopedFd sock = net::tcp_connect(server.port());
    serve::FdTransport transport(sock.get());
    send_all(sock.get(), load_frame(text));
    const Frame load = next_frame(transport.in());
    ASSERT_EQ(load.status.rfind("OK 0 session=", 0), 0u);
    std::string script;
    for (std::size_t q = 0; q < kRequests; ++q) {
      script += "ROUTE " + key + "\n";
    }
    send_all(sock.get(), script);
    // Vanish without reading a single response.
  }

  // Every submitted request must settle: routed before the disconnect was
  // noticed, or cancelled at dequeue via the dropped connection's token.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  for (;;) {
    const serve::MetricsSnapshot snap = server.service().snapshot();
    const std::uint64_t settled = snap.requests_ok + snap.requests_cancelled +
                                  snap.requests_errored +
                                  snap.requests_expired;
    if (snap.requests_submitted >= kRequests && settled >= kRequests &&
        snap.queue_depth == 0) {
      EXPECT_GE(snap.requests_cancelled, 1u)
          << "disconnect should cancel still-queued requests";
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "requests did not settle after disconnect";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // And the loop keeps serving fresh connections afterwards.
  const net::ScopedFd probe = net::tcp_connect(server.port());
  serve::FdTransport transport(probe.get());
  send_all(probe.get(), "STATS\nQUIT\n");
  const Frame stats = next_frame(transport.in());
  EXPECT_EQ(stats.status.rfind("OK ", 0), 0u);
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
}

TEST(EventLoop, RouteNetSubsetOverTcp) {
  TestServer server;
  const std::string text = workload_text(9, 12, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult reference =
      route::NetlistRouter(lay).route_all();
  const std::string key = serve::SessionCache::content_key(text);
  ASSERT_GE(lay.nets().size(), 2u);
  const std::string& first = lay.nets()[0].name();
  const std::string& second = lay.nets()[1].name();

  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());
  send_all(sock.get(), load_frame(text) + "ROUTE " + key + " nets=" + second +
                           "," + first + "\nROUTE " + key +
                           " nets=no_such_net\nQUIT\n");

  (void)next_frame(transport.in());  // LOAD
  const Frame subset = next_frame(transport.in());
  ASSERT_EQ(subset.status.rfind("OK ", 0), 0u) << subset.status;
  EXPECT_NE(subset.status.find("routed=2 "), std::string::npos);
  // The dump covers exactly the requested nets, in request order, and each
  // route matches the full-netlist reference bit-for-bit.
  const route::NetlistResult parsed = io::read_routes_string(subset.body, lay);
  EXPECT_EQ(parsed.routed, 2u);
  EXPECT_EQ(parsed.routes[0].segments, reference.routes[0].segments);
  EXPECT_EQ(parsed.routes[1].segments, reference.routes[1].segments);
  EXPECT_EQ(subset.body.rfind("route " + second + " ", 0), 0u)
      << "dump must begin with the first requested net";

  const Frame unknown = next_frame(transport.in());
  EXPECT_EQ(unknown.status.rfind("ERR ", 0), 0u);
  EXPECT_NE(unknown.status.find("unknown net 'no_such_net'"),
            std::string::npos);
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
}

TEST(EventLoop, RerouteOverTcp) {
  // REROUTE end to end over the epoll front-end — pipelined in the same
  // segment as the LOAD, which since the LOAD offload also exercises the
  // connection's load barrier: the REROUTE must not be admitted (and fail
  // session_not_found) before the offloaded build finishes.
  TestServer server;
  const std::string text = workload_text(9, 12, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const std::string key = serve::SessionCache::content_key(text);
  ASSERT_GE(lay.nets().size(), 3u);
  const std::string& a = lay.nets()[2].name();
  const std::string& b = lay.nets()[0].name();

  route::NetlistOptions ropts;
  ropts.mode = route::NetlistMode::kSequential;
  ropts.reroute = {2, 0};
  const route::NetlistResult want =
      route::NetlistRouter(lay).route_all(ropts);
  const std::string want_dump =
      io::write_routes_string(lay, want, ropts.reroute);

  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());
  send_all(sock.get(), load_frame(text) + "REROUTE " + key + " nets=" + a +
                           "," + b + "\nREROUTE " + key +
                           "\nREROUTE " + key + " mode=independent nets=" +
                           a + "\nQUIT\n");

  const Frame load = next_frame(transport.in());
  EXPECT_EQ(load.status.rfind("OK 0 session=", 0), 0u) << load.status;
  const Frame reroute = next_frame(transport.in());
  ASSERT_EQ(reroute.status.rfind("OK ", 0), 0u) << reroute.status;
  EXPECT_NE(reroute.status.find("routed=" + std::to_string(want.routed) +
                                " failed=" + std::to_string(want.failed)),
            std::string::npos)
      << reroute.status;
  EXPECT_EQ(reroute.body, want_dump)
      << "REROUTE dump must reproduce the rip-up driver bit-for-bit";

  const Frame missing = next_frame(transport.in());
  EXPECT_EQ(missing.status.rfind("ERR ", 0), 0u);
  EXPECT_NE(missing.status.find("REROUTE needs nets="), std::string::npos);
  const Frame badmode = next_frame(transport.in());
  EXPECT_EQ(badmode.status.rfind("ERR ", 0), 0u);
  EXPECT_NE(badmode.status.find("always sequential"), std::string::npos);
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
}

TEST(EventLoop, OptimizeStreamsPassLinesInPipelineOrder) {
  // OPTIMIZE over the epoll front-end, pipelined between a ROUTE and a
  // STATS in one TCP segment.  The PASS progress lines must stream inside
  // the OPTIMIZE's slot of the response sequence: after the ROUTE's frame
  // (the partials park with their ticket while the earlier response is
  // pending), before the final OPTIMIZE frame, never interleaved into the
  // STATS reply.
  TestServer server;
  const std::string text = workload_text(12, 24, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult ref = route::NetlistRouter(lay).route_all();
  const route::OptimizeReport direct = route::Optimizer(lay).run();
  const std::string key = serve::SessionCache::content_key(text);

  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());
  send_all(sock.get(), load_frame(text) + "ROUTE " + key + "\nOPTIMIZE " +
                           key + "\nSTATS\nQUIT\n");

  const Frame load = next_frame(transport.in());
  EXPECT_EQ(load.status.rfind("OK 0 session=", 0), 0u) << load.status;
  const Frame route = next_frame(transport.in());
  ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
  EXPECT_EQ(io::read_routes_string(route.body, lay).total_wirelength,
            ref.total_wirelength);

  const Frame frame = next_frame(transport.in());
  const auto& passes = frame.passes;
  ASSERT_EQ(frame.status.rfind("OK ", 0), 0u) << frame.status;
  ASSERT_EQ(passes.size(), direct.passes.size());
  for (std::size_t i = 0; i < passes.size(); ++i) {
    EXPECT_EQ(passes[i].pass, i + 1);
    EXPECT_EQ(passes[i].wirelength, direct.passes[i].wirelength);
    EXPECT_EQ(passes[i].overflow, direct.passes[i].overflow);
    if (i > 0) {
      EXPECT_LE(passes[i].wirelength, passes[i - 1].wirelength);
      EXPECT_LE(passes[i].overflow, passes[i - 1].overflow);
    }
  }
  EXPECT_NE(frame.status.find("passes=" +
                              std::to_string(direct.passes.size())),
            std::string::npos)
      << frame.status;
  const route::NetlistResult parsed = io::read_routes_string(frame.body, lay);
  EXPECT_EQ(parsed.total_wirelength, direct.result.total_wirelength);
  EXPECT_EQ(parsed.routed, direct.result.routed);

  const Frame stats = next_frame(transport.in());
  ASSERT_EQ(stats.status.rfind("OK ", 0), 0u) << stats.status;
  EXPECT_NE(stats.body.find("requests_submitted"), std::string::npos);
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
  char c = 0;
  EXPECT_EQ(::recv(sock.get(), &c, 1, 0), 0);  // clean close, stream intact

  // OPTIMIZE deadline_ms is capped like ROUTE's (the overflow bugfix).
  const net::ScopedFd cap = net::tcp_connect(server.port());
  serve::FdTransport cap_t(cap.get());
  send_all(cap.get(),
           "OPTIMIZE " + key + " deadline_ms=18446744073709551615\nQUIT\n");
  const Frame err = next_frame(cap_t.in());
  EXPECT_EQ(err.status.rfind("ERR ", 0), 0u) << err.status;
  EXPECT_NE(err.status.find("86400000"), std::string::npos) << err.status;
  const Frame cap_bye = next_frame(cap_t.in());
  EXPECT_EQ(cap_bye.status, "OK 0 bye");
}

TEST(EventLoop, LoadRunsOnWorkerPoolAndLoopStaysResponsive) {
  // The LOAD-stall fix: a cold LOAD (parse + environment build) must run
  // on the worker pool, not the loop thread, so other connections keep
  // getting served while it builds.
  serve::RoutingService::Options sopts;
  sopts.workers = 1;  // a single worker makes the queue trip observable
  TestServer server(net::EventLoopOptions(), sopts);

  // Big enough that the build takes real time (hundreds of escape-line
  // traces), small enough to stay fast under sanitizers.
  const std::string big = workload_text(48, 64, 11);
  const net::ScopedFd loader = net::tcp_connect(server.port());
  serve::FdTransport loader_t(loader.get());
  send_all(loader.get(), load_frame(big));

  // While the LOAD is (at least potentially) building, a second connection
  // must get an inline answer from the loop.  This is a liveness check —
  // deterministic ordering proof comes from the metrics below.
  const net::ScopedFd prober = net::tcp_connect(server.port());
  serve::FdTransport prober_t(prober.get());
  send_all(prober.get(), "STATS\n");
  const Frame stats = next_frame(prober_t.in());
  EXPECT_EQ(stats.status.rfind("OK ", 0), 0u) << stats.status;

  const Frame load = next_frame(loader_t.in());
  EXPECT_EQ(load.status.rfind("OK 0 session=", 0), 0u) << load.status;

  // The cold LOAD went through the pool exactly once...
  serve::MetricsSnapshot snap = server.service().snapshot();
  EXPECT_EQ(snap.loads_offloaded, 1u);
  EXPECT_EQ(snap.loads_ok, 1u);

  // ...and a repeat LOAD of resident content answers inline (a content
  // hash on the loop), not with a second pool trip.
  send_all(loader.get(), load_frame(big) + "QUIT\n");
  const Frame cached = next_frame(loader_t.in());
  EXPECT_NE(cached.status.find("cached=1"), std::string::npos)
      << cached.status;
  snap = server.service().snapshot();
  EXPECT_EQ(snap.loads_offloaded, 1u)
      << "a resident LOAD must not burn a worker-pool trip";
  EXPECT_EQ(snap.cache_hits, 1u);
  const Frame bye = next_frame(loader_t.in());
  EXPECT_EQ(bye.status, "OK 0 bye");

  // A malformed body still answers ERR through the offloaded path.
  const net::ScopedFd bad = net::tcp_connect(server.port());
  serve::FdTransport bad_t(bad.get());
  const std::string garbage = "boundary 0 0 10\nnonsense";
  send_all(bad.get(), load_frame(garbage) + "QUIT\n");
  const Frame err = next_frame(bad_t.in());
  EXPECT_EQ(err.status.rfind("ERR ", 0), 0u) << err.status;
  const Frame bad_bye = next_frame(bad_t.in());
  EXPECT_EQ(bad_bye.status, "OK 0 bye");
  EXPECT_EQ(server.service().snapshot().loads_failed, 1u);
}

TEST(EventLoop, PipelinedLoadRouteBurstWaitsForOffloadedBuild) {
  // A cold LOAD and the ROUTEs that depend on it in one TCP segment: the
  // load barrier must park the ROUTEs until the offloaded build finishes
  // (admission resolves the session by handle), and responses must come
  // back complete and in order.  Two different layouts back to back also
  // prove the barrier re-arms.
  TestServer server;
  const std::string text_a = workload_text(9, 12, 7);
  const std::string text_b = workload_text(9, 12, 8);
  const std::string key_a = serve::SessionCache::content_key(text_a);
  const std::string key_b = serve::SessionCache::content_key(text_b);
  const layout::Layout lay_a = io::read_layout_string(text_a);
  const layout::Layout lay_b = io::read_layout_string(text_b);
  const route::NetlistResult ref_a = route::NetlistRouter(lay_a).route_all();
  const route::NetlistResult ref_b = route::NetlistRouter(lay_b).route_all();

  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());
  send_all(sock.get(), load_frame(text_a) + "ROUTE " + key_a + "\n" +
                           "ROUTE " + key_a + "\n" + load_frame(text_b) +
                           "ROUTE " + key_b + "\nQUIT\n");

  const Frame load_a = next_frame(transport.in());
  EXPECT_NE(load_a.status.find("session=" + key_a), std::string::npos);
  for (int i = 0; i < 2; ++i) {
    const Frame route = next_frame(transport.in());
    ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
    const route::NetlistResult parsed =
        io::read_routes_string(route.body, lay_a);
    EXPECT_EQ(parsed.total_wirelength, ref_a.total_wirelength);
  }
  const Frame load_b = next_frame(transport.in());
  EXPECT_NE(load_b.status.find("session=" + key_b), std::string::npos);
  const Frame route_b = next_frame(transport.in());
  ASSERT_EQ(route_b.status.rfind("OK ", 0), 0u) << route_b.status;
  const route::NetlistResult parsed_b =
      io::read_routes_string(route_b.body, lay_b);
  EXPECT_EQ(parsed_b.total_wirelength, ref_b.total_wirelength);
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
  EXPECT_GE(server.service().snapshot().loads_offloaded, 2u);
}

TEST(EventLoop, StatsCarriesLoopHealthAndTraceWorksOverTcp) {
  // The loop exports its own health (loop_* keys) into the STATS body via
  // RoutingService::set_extra_stats, and the TRACE verb + trace=1 knob work
  // end to end over the epoll front-end.
  TestServer server;
  const std::string text = workload_text(9, 12, 7);
  const std::string key = serve::SessionCache::content_key(text);

  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());
  send_all(sock.get(), load_frame(text) + "ROUTE " + key + " trace=1\n");

  (void)next_frame(transport.in());  // LOAD
  const Frame route = next_frame(transport.in());
  ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
  // Span breakdown rides the response meta when asked for...
  EXPECT_NE(route.status.find("span_exec_us="), std::string::npos)
      << route.status;
  EXPECT_NE(route.status.find("span_parse_us="), std::string::npos);

  // STATS and TRACE are answered inline on the loop thread the moment they
  // are parsed (their *responses* still sequence after earlier frames, but
  // their *content* is computed immediately) — so they only observe the
  // ROUTE deterministically once its response has been read back, which
  // happens-after the worker recorded the histogram and ring entries.
  send_all(sock.get(), "STATS\nTRACE n=4\nQUIT\n");
  const Frame stats = next_frame(transport.in());
  ASSERT_EQ(stats.status.rfind("OK ", 0), 0u);
  // ...the service shards it per verb...
  EXPECT_NE(stats.body.find("verb_route_count 1"), std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("verb_load_count 1"), std::string::npos);
  // ...and the loop's own counters ride along.  The connection gauge and
  // byte counters are live: this very connection is connected and has sent
  // bytes.
  EXPECT_NE(stats.body.find("loop_connections 1"), std::string::npos)
      << stats.body;
  for (const char* k :
       {"loop_accepted", "loop_commands", "loop_reads_suspended",
        "loop_dropped_slow", "loop_dropped_error", "loop_parked",
        "loop_replayed", "loop_bytes_in", "loop_bytes_out", "loop_wakeups",
        "loop_lag_p50_us", "loop_lag_p95_us", "loop_lag_p99_us"}) {
    EXPECT_NE(stats.body.find(std::string(k) + " "), std::string::npos) << k;
  }
  EXPECT_EQ(stats.body.find("loop_bytes_in 0\n"), std::string::npos)
      << "the LOAD alone sent hundreds of bytes";

  const Frame trace = next_frame(transport.in());
  ASSERT_EQ(trace.status.rfind("OK ", 0), 0u) << trace.status;
  EXPECT_NE(trace.status.find("count="), std::string::npos);
  // The traced ROUTE (and the offloaded LOAD) are in the ring.
  EXPECT_NE(trace.body.find("verb=route"), std::string::npos) << trace.body;
  EXPECT_NE(trace.body.find("session=" + key), std::string::npos);
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");

  // Once the client hangs up the gauge returns to zero — poll briefly, the
  // loop notices the close asynchronously.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().connections.load() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().connections.load(), 0u);
  EXPECT_GT(server.stats().bytes_out.load(), 0u);
  EXPECT_GT(server.stats().wakeups.load(), 0u);
}

TEST(EventLoop, UnixListenerServesSameProtocolAndUnlinksOnExit) {
  // --listen-unix: a second accept source on the same loop, same framing,
  // same Connection path.  The listener owns the path: bound at construction,
  // unlinked when the loop is torn down.
  const std::string path =
      "/tmp/gcr_net_test_" + std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  const std::string text = workload_text(9, 12, 7);
  const std::string key = serve::SessionCache::content_key(text);
  {
    net::EventLoopOptions lopts;
    lopts.unix_path = path;
    TestServer server(lopts);

    const net::ScopedFd un = net::unix_connect(path);
    serve::FdTransport transport(un.get());
    send_all(un.get(), load_frame(text) + "ROUTE " + key + "\nQUIT\n");
    const Frame load = next_frame(transport.in());
    EXPECT_EQ(load.status.rfind("OK ", 0), 0u) << load.status;
    const Frame route = next_frame(transport.in());
    ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
    EXPECT_NE(route.status.find("routed="), std::string::npos);
    EXPECT_FALSE(route.body.empty());
    const Frame bye = next_frame(transport.in());
    EXPECT_EQ(bye.status, "OK 0 bye");

    // The TCP listener coexists on the same loop — and both transports are
    // the same service: the unix-side LOAD is already cached here.
    const net::ScopedFd tcp = net::tcp_connect(server.port());
    serve::FdTransport ttrans(tcp.get());
    send_all(tcp.get(), "ROUTE " + key + "\nQUIT\n");
    const Frame troute = next_frame(ttrans.in());
    EXPECT_EQ(troute.status.rfind("OK ", 0), 0u) << troute.status;
  }
  // Loop gone ⇒ path gone (unlink-on-exit), so restarts never hit EADDRINUSE.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(ReactorPool, ShardsConnectionsAndAggregatesLoopStats) {
  // Four reactors, one port, one service.  Connections land on
  // kernel-chosen loops; STATS must carry the aggregate loop_* block (old
  // consumers), the reactor count, and the per-loop loop<i>_* shards.
  serve::RoutingService::Options sopts;
  sopts.workers = 2;
  serve::RoutingService service(sopts);
  net::ReactorPoolOptions popts;
  popts.reactors = 4;
  net::ReactorPool pool(service, popts);
  ASSERT_EQ(pool.size(), 4u);
  std::thread pool_thread([&] { pool.run(); });

  const std::string text = workload_text(9, 12, 7);
  const std::string key = serve::SessionCache::content_key(text);
  {
    // Enough connections that the reuseport hash almost surely spreads
    // them; correctness must hold regardless of the actual spread.
    std::vector<net::ScopedFd> socks;
    for (int i = 0; i < 8; ++i) {
      socks.push_back(net::tcp_connect(pool.port()));
    }
    for (std::size_t i = 0; i < socks.size(); ++i) {
      serve::FdTransport transport(socks[i].get());
      send_all(socks[i].get(), load_frame(text) + "ROUTE " + key + "\n");
      const Frame load = next_frame(transport.in());
      EXPECT_EQ(load.status.rfind("OK ", 0), 0u) << load.status;
      const Frame route = next_frame(transport.in());
      EXPECT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
    }

    // One more connection asks for STATS while the others are still open.
    const net::ScopedFd ssock = net::tcp_connect(pool.port());
    serve::FdTransport stransport(ssock.get());
    send_all(ssock.get(), "STATS\nQUIT\n");
    const Frame stats = next_frame(stransport.in());
    ASSERT_EQ(stats.status.rfind("OK ", 0), 0u) << stats.status;
    EXPECT_NE(stats.body.find("loop_reactors 4"), std::string::npos)
        << stats.body;
    // Aggregate block: 9 open connections across the pool, 9 accepts total.
    EXPECT_NE(stats.body.find("loop_connections 9"), std::string::npos)
        << stats.body;
    EXPECT_NE(stats.body.find("loop_accepted 9"), std::string::npos);
    EXPECT_NE(stats.body.find("loop_lag_p99_us "), std::string::npos);
    // Per-loop shards exist for every reactor, and the shard counters sum
    // to the aggregate.
    std::uint64_t accepted_sum = 0;
    for (int i = 0; i < 4; ++i) {
      const std::string shard_key =
          "loop" + std::to_string(i) + "_accepted ";
      const std::size_t at = stats.body.find(shard_key);
      ASSERT_NE(at, std::string::npos) << shard_key << "\n" << stats.body;
      accepted_sum += std::strtoull(
          stats.body.c_str() + at + shard_key.size(), nullptr, 10);
      EXPECT_NE(stats.body.find("loop" + std::to_string(i) + "_commands "),
                std::string::npos);
    }
    EXPECT_EQ(accepted_sum, 9u);
    const Frame bye = next_frame(stransport.in());
    EXPECT_EQ(bye.status, "OK 0 bye");
  }

  // All clients hung up: a single stop() drains every loop and run()
  // returns — the join below is the multi-reactor shutdown barrier.
  pool.stop();
  pool_thread.join();
  std::uint64_t accepted = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    accepted += pool.loop(i).stats().accepted.load();
    EXPECT_EQ(pool.loop(i).stats().connections.load(), 0u);
  }
  EXPECT_EQ(accepted, 9u);
}

// ------------------------------------------------------- adopted descriptors

/// Reads \p fd from its start to end of file.
std::string read_file(int fd) {
  std::string out;
  char buf[64 * 1024];
  ::lseek(fd, 0, SEEK_SET);
  for (ssize_t r; (r = ::read(fd, buf, sizeof buf)) > 0;) {
    out.append(buf, static_cast<std::size_t>(r));
  }
  return out;
}

TEST(EventLoop, AdoptedPipesRunOneCommandAtATimeAndRestoreFlags) {
  // ROUTE then STATS back to back: the STATS must wait for the ROUTE, as
  // every command on a pipe does, so its body already counts it.  The
  // layout is big enough that a pipelined STATS would overtake the ROUTE.
  const std::string text = workload_text(25, 40, 7);
  const std::string key = serve::SessionCache::content_key(text);
  serve::RoutingService service;
  std::istringstream replies(test::run_script(
      service, load_frame(text) + "ROUTE " + key + "\nSTATS\nQUIT\n"));
  (void)next_frame(replies);  // LOAD
  const Frame route = next_frame(replies);
  ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
  const Frame stats = next_frame(replies);
  EXPECT_NE(stats.body.find("\nrequests_ok 1\n"), std::string::npos)
      << stats.body;
  EXPECT_EQ(next_frame(replies).status, "OK 0 bye");

  // The loop borrows descriptors: O_NONBLOCK is gone once it returns.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[1]);  // immediate EOF: the connection closes at once
  net::EventLoop(service, net::EventLoopOptions(), fds[0], fds[0]).run();
  EXPECT_EQ(::fcntl(fds[0], F_GETFL) & O_NONBLOCK, 0);
  ::close(fds[0]);
}

TEST(EventLoop, AdoptedPipesDeliverAResponsePastTheHardCap) {
  // A pipe reader is never dropped as too slow: 40 cells with 2201 pins
  // each render an SVG larger than the default 4 MiB write_hard_cap, and
  // it must arrive whole even when the reader starts only once the whole
  // response is waiting in the loop.
  std::string text = "boundary 0 0 100000 1000\n";
  for (int c = 0; c < 40; ++c) {
    const int x0 = c * 2400 + 100;
    const int x1 = x0 + 2200;
    text += "cell c" + std::to_string(c) + " " + std::to_string(x0) +
            " 200 " + std::to_string(x1) + " 800\nterm c" +
            std::to_string(c) + " t";
    for (int x = x0; x <= x1; ++x) text += " " + std::to_string(x) + " 800";
    text += "\n";
  }
  const std::string script = load_frame(text) + "SVG " +
                             serve::SessionCache::content_key(text) +
                             "\nQUIT\n";
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  serve::RoutingService service;
  net::EventLoop loop(service, net::EventLoopOptions(), in[0], out[1]);
  std::thread server([&] {
    loop.run();
    ::close(out[1]);  // EOF for the reader, even after a drop
  });
  std::thread writer([&] { test::write_and_close(in[1], script); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.snapshot().stages_ok == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let the loop meet the full pipe before anyone reads it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  serve::FdTransport transport(out[0], -1);
  (void)next_frame(transport.in());  // LOAD
  const Frame svg = next_frame(transport.in());
  ASSERT_EQ(svg.status.rfind("OK ", 0), 0u) << svg.status;
  EXPECT_GT(svg.body.size(), net::EventLoopOptions().write_hard_cap);
  EXPECT_EQ(svg.body.substr(svg.body.size() - 7), "</svg>\n");
  EXPECT_EQ(next_frame(transport.in()).status, "OK 0 bye");
  server.join();
  writer.join();
  EXPECT_EQ(loop.stats().dropped_slow.load(), 0u);
  ::close(in[0]);
  ::close(out[0]);
}

TEST(EventLoop, AdoptedRegularFilesAnswerLikePipes) {
  // epoll refuses regular files, so `gcr_serve < script > out` reads and
  // writes them without waiting — with the same bytes as through pipes.
  const std::string text = workload_text(9, 12, 7);
  const std::string key = serve::SessionCache::content_key(text);
  const std::string script =
      load_frame(text) + "ROUTE " + key + "\nSTATS\nQUIT\n";
  serve::RoutingService piped;
  std::istringstream want(test::run_script(piped, script));

  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(::write(fileno(in), script.data(), script.size()),
            static_cast<ssize_t>(script.size()));
  ::lseek(fileno(in), 0, SEEK_SET);
  serve::RoutingService filed;
  net::EventLoop(filed, net::EventLoopOptions(), fileno(in), fileno(out))
      .run();
  std::istringstream got(read_file(fileno(out)));
  std::fclose(in);
  std::fclose(out);

  // Timings differ run to run: compare ROUTE up to its timing meta and
  // STATS by its counters, the rest exactly.
  EXPECT_EQ(next_frame(got).status, next_frame(want).status);  // LOAD
  const Frame route = next_frame(got);
  const Frame want_route = next_frame(want);
  EXPECT_EQ(test::strip_timing(route.status),
            test::strip_timing(want_route.status));
  EXPECT_EQ(route.body, want_route.body);
  const Frame stats = next_frame(got);
  EXPECT_NE(stats.body.find("\nrequests_ok 1\n"), std::string::npos);
  (void)next_frame(want);
  EXPECT_EQ(next_frame(got).status, "OK 0 bye");
  EXPECT_EQ(got.peek(), EOF);
}

#else  // !__linux__

constexpr bool kHaveEventLoop = false;

TEST(EventLoop, RequiresLinux) {
  GTEST_SKIP() << "epoll front-end tests require Linux";
}

#endif  // __linux__

TEST(EventLoopMeta, PlatformGate) {
  // Document which flavour of this suite ran: full on Linux, parser-only
  // elsewhere.
  SUCCEED() << (kHaveEventLoop ? "event loop exercised"
                               : "parser-only platform");
}

}  // namespace
