// Tests for the serving subsystem: session cache (content addressing, LRU,
// environment reuse), bounded job queue, worker-pool request lifecycle
// (deadlines, cancellation, saturation), and the framed line protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/netlist_router.hpp"
#include "core/optimize.hpp"
#include "core/search_environment.hpp"
#include "io/route_dump.hpp"
#include "io/text_format.hpp"
#include "serve/fair_queue.hpp"
#include "serve/job_queue.hpp"
#include "serve/layout_session.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/routing_service.hpp"
#include "serve/trace.hpp"
#include "workload/netgen.hpp"

namespace {

using namespace gcr;

constexpr const char* kTinyLayout = R"(boundary 0 0 100 100
minsep 4
cell alu 10 10 30 30
cell rom 50 50 80 80
term alu a 30 20
term rom d 50 70
net n1 alu.a rom.d
)";

std::string workload_text(std::size_t cells, std::size_t nets,
                          std::uint64_t seed) {
  return io::write_layout_string(
      workload::standard_workload(cells, 512, nets, seed));
}

// ------------------------------------------------------------- session cache

TEST(SessionCache, HitSkipsEnvironmentConstruction) {
  serve::SessionCache cache(4);
  const std::string text = workload_text(9, 12, 3);

  const std::size_t builds_before = route::SearchEnvironment::build_count();
  const auto first = cache.load(text);
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds_before + 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  // The acceptance check: a cache hit must perform zero ObstacleIndex /
  // EscapeLineSet construction.
  const auto second = cache.load(text);
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds_before + 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(second.get(), first.get());  // literally the same session
}

TEST(SessionCache, ContentAddressing) {
  // Known FNV-1a vectors pin the hash: an accidental constant change would
  // silently orphan every handle a client computed out-of-process.
  EXPECT_EQ(serve::SessionCache::content_key(""), "cbf29ce484222325");
  EXPECT_EQ(serve::SessionCache::content_key("a"), "af63dc4c8601ec8c");

  const std::string a = workload_text(9, 12, 3);
  const std::string b = workload_text(9, 12, 4);
  EXPECT_EQ(serve::SessionCache::content_key(a),
            serve::SessionCache::content_key(a));
  EXPECT_NE(serve::SessionCache::content_key(a),
            serve::SessionCache::content_key(b));

  serve::SessionCache cache(4);
  const auto sa = cache.load(a);
  EXPECT_EQ(sa->key, serve::SessionCache::content_key(a));
  EXPECT_EQ(cache.find(sa->key).get(), sa.get());
  EXPECT_EQ(cache.find("0000000000000000"), nullptr);
}

TEST(SessionCache, LruEviction) {
  serve::SessionCache cache(2);
  const std::string a = workload_text(9, 12, 3);
  const std::string b = workload_text(9, 12, 4);
  const std::string c = workload_text(9, 12, 5);
  const auto ka = cache.load(a)->key;
  const auto kb = cache.load(b)->key;
  (void)cache.find(ka);  // refresh a: b is now least recent
  (void)cache.load(c);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.find(ka), nullptr);
  EXPECT_EQ(cache.find(kb), nullptr);  // evicted
}

TEST(SessionCache, RejectsMalformedAndInvalidLayouts) {
  serve::SessionCache cache(2);
  EXPECT_THROW((void)cache.load("boundary 0 0 9\n"), std::runtime_error);
  EXPECT_THROW((void)cache.load("garbage directive\n"), std::runtime_error);
  // Parseable but violates placement rules (overlapping cells): the service
  // must refuse to build a session rather than route a broken problem.
  EXPECT_THROW(
      (void)cache.load("boundary 0 0 100 100\ncell a 10 10 50 50\n"
                       "cell b 20 20 60 60\n"),
      std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------- job queue

TEST(BoundedQueue, SaturationAndClose) {
  serve::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: admission fails fast
  EXPECT_EQ(q.size(), 2u);

  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(3));

  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed: no admission
  EXPECT_EQ(q.pop(), 2);        // but queued jobs drain
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), std::nullopt);  // closed + drained
}

TEST(BoundedQueue, BlockingHandoff) {
  serve::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(7));
  std::thread producer([&] { EXPECT_TRUE(q.push(8)); });  // blocks while full
  EXPECT_EQ(q.pop(), 7);
  EXPECT_EQ(q.pop(), 8);
  producer.join();
}

// ---------------------------------------------------------------- fair queue

/// Drains the whole queue (which must already be fully loaded) and returns
/// the dequeue order.
std::vector<int> drain_order(serve::FairQueue<int>& q) {
  std::vector<int> order;
  while (q.size() > 0) order.push_back(*q.pop());
  return order;
}

TEST(FairQueue, SaturationAndCloseMatchBoundedQueueSemantics) {
  serve::FairQueue<int> q(2);
  EXPECT_TRUE(q.try_push("a", 1));
  EXPECT_TRUE(q.try_push("b", 2));
  EXPECT_FALSE(q.try_push("c", 3));  // capacity is TOTAL, across shards
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_EQ(q.shards(), 2u);

  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push("a", 4));  // closed: no admission
  EXPECT_NE(q.pop(), std::nullopt);  // but queued jobs drain
  EXPECT_NE(q.pop(), std::nullopt);
  EXPECT_EQ(q.pop(), std::nullopt);  // closed + drained
  EXPECT_EQ(q.shards(), 0u);         // drained shards are retired
}

TEST(FairQueue, SingleKeyPreservesFifoOrder) {
  // One shard degenerates to the old bounded FIFO — the N=1 differential
  // at the queue level.
  serve::FairQueue<int> q(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(q.try_push("only", int{i}));
  EXPECT_EQ(drain_order(q), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(FairQueue, DeficitRoundRobinBoundsNeighborBurst) {
  // Session "hot" has 5 queued jobs before "idle" submits one.  Under the
  // old global FIFO the idle job waits behind all five; under DRR it waits
  // behind exactly one (the ring serves each shard once per round).
  serve::FairQueue<int> q(16);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push("hot", 100 + i));
  ASSERT_TRUE(q.try_push("idle", 1));

  const std::vector<int> order = drain_order(q);
  EXPECT_EQ(order, (std::vector<int>{100, 1, 101, 102, 103, 104}));
  EXPECT_GT(q.fair_rounds(), 0u);
}

TEST(FairQueue, ShardStatsExposeSkew) {
  serve::FairQueue<int> q(16);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push("hot", int{i}));
  ASSERT_TRUE(q.try_push("idle", 9));

  const auto stats = q.shard_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].key, "hot");
  EXPECT_EQ(stats[0].depth, 4u);
  EXPECT_EQ(stats[0].enqueued, 4u);
  EXPECT_EQ(stats[0].served, 0u);
  EXPECT_EQ(stats[1].key, "idle");
  EXPECT_EQ(stats[1].depth, 1u);

  (void)q.pop();  // hot serves one
  const auto after = q.shard_stats();
  // The served shard rotated to the ring's back; idle now fronts.
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].key, "idle");
  EXPECT_EQ(after[1].key, "hot");
  EXPECT_EQ(after[1].served, 1u);
  EXPECT_EQ(after[1].depth, 3u);
  EXPECT_GE(q.oldest_wait_us(), 0u);
}

TEST(RoutingService, HotSessionCannotStarveIdleNeighbor) {
  // The fairness differential at the service level: one worker, a 50-deep
  // burst on session A, then a single request on session B.  Fair dispatch
  // must answer B near the front (it waits behind at most one A job per
  // round from the moment it queues); the retired global FIFO
  // would have answered it dead last.
  const std::string text_a = workload_text(9, 12, 7);
  const std::string text_b = workload_text(9, 12, 8);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  opts.queue_capacity = 128;
  serve::RoutingService service(opts);
  const auto session_a = service.load(text_a);
  const auto session_b = service.load(text_b);

  constexpr std::size_t kBurst = 50;
  std::mutex mu;
  std::vector<std::string> completions;
  std::condition_variable cv;
  const auto on_done = [&](const std::string& tag) {
    return [&, tag](serve::RouteResponse resp) {
      EXPECT_TRUE(resp.ok()) << resp.error;
      const std::lock_guard<std::mutex> lock(mu);
      completions.push_back(tag);
      cv.notify_all();
    };
  };
  for (std::size_t i = 0; i < kBurst; ++i) {
    serve::RouteRequest req;
    req.session_key = session_a->key;
    service.submit(std::move(req), on_done("A"));
  }
  serve::RouteRequest req;
  req.session_key = session_b->key;
  service.submit(std::move(req), on_done("B"));

  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return completions.size() == kBurst + 1; });
  const auto b_pos = static_cast<std::size_t>(
      std::find(completions.begin(), completions.end(), "B") -
      completions.begin());
  // The worker may legitimately drain a few A jobs before B is admitted,
  // but B must never sink to the tail the FIFO would have left it at.
  EXPECT_LT(b_pos, kBurst / 2) << "idle session starved behind hot burst";
  EXPECT_GT(service.snapshot().queue_fair_rounds, 0u);
}

// ------------------------------------------------------------ route service

TEST(RoutingService, MatchesDirectRouterOnCachedSession) {
  const std::string text = workload_text(9, 12, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult direct = route::NetlistRouter(lay).route_all();

  serve::RoutingService::Options opts;
  opts.workers = 2;
  serve::RoutingService service(opts);
  const auto session = service.load(text);

  serve::RouteRequest req;
  req.session_key = session->key;
  const serve::RouteResponse resp = service.route(std::move(req));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.result.total_wirelength, direct.total_wirelength);
  EXPECT_EQ(resp.result.routed, direct.routed);
  EXPECT_EQ(resp.result.failed, direct.failed);
  EXPECT_GE(resp.latency.count(), resp.queue_wait.count());
}

TEST(RoutingService, SequentialModeServedFromCachedSession) {
  // Sequential mode used to rebuild the ObstacleIndex and EscapeLineSet per
  // net, which made cached sessions useless for it.  With incremental
  // commit_route updates it starts from a *copy* of the session environment
  // and performs zero builds — while producing exactly the direct result.
  const std::string text = workload_text(9, 12, 7);
  const layout::Layout lay = io::read_layout_string(text);
  route::NetlistOptions seq;
  seq.mode = route::NetlistMode::kSequential;
  const route::NetlistResult direct = route::NetlistRouter(lay).route_all(seq);

  serve::RoutingService::Options opts;
  opts.workers = 2;
  serve::RoutingService service(opts);
  const auto session = service.load(text);
  const std::size_t builds = route::SearchEnvironment::build_count();

  serve::RouteRequest req;
  req.session_key = session->key;
  req.payload = serve::RouteRequest::Route{seq};
  const serve::RouteResponse resp = service.route(std::move(req));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds)
      << "a cached session must serve sequential mode without env builds";
  EXPECT_EQ(resp.result.total_wirelength, direct.total_wirelength);
  EXPECT_EQ(resp.result.routed, direct.routed);
  EXPECT_EQ(resp.result.failed, direct.failed);
  ASSERT_EQ(resp.result.routes.size(), direct.routes.size());
  for (std::size_t i = 0; i < direct.routes.size(); ++i) {
    EXPECT_EQ(resp.result.routes[i].segments, direct.routes[i].segments)
        << "net " << i;
  }
}

TEST(RoutingService, ConcurrentRequestsShareOneSession) {
  const std::string text = workload_text(9, 12, 7);
  serve::RoutingService::Options opts;
  opts.workers = 4;
  opts.queue_capacity = 64;
  serve::RoutingService service(opts);
  const auto session = service.load(text);
  const std::size_t builds_after_load = route::SearchEnvironment::build_count();

  const geom::Cost expected =
      route::NetlistRouter(session->layout, session->env)
          .route_all()
          .total_wirelength;

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 4;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        serve::RouteRequest req;
        req.session_key = session->key;
        const serve::RouteResponse resp = service.route(std::move(req));
        if (!resp.ok() || resp.result.total_wirelength != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // The reference route and all 32 concurrent requests reused the session's
  // environment: not one ObstacleIndex or EscapeLineSet was built after
  // load().
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds_after_load);
  EXPECT_EQ(service.snapshot().requests_ok, kClients * kPerClient);
}

TEST(RoutingService, UnknownSessionFailsFast) {
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  serve::RouteRequest req;
  req.session_key = "feedfacefeedface";
  const serve::RouteResponse resp = service.route(std::move(req));
  EXPECT_EQ(resp.status, serve::RouteStatus::kSessionNotFound);
  const serve::MetricsSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.requests_not_found, 1u);
  EXPECT_EQ(snap.requests_errored, 0u);  // addressing mistake, not a failure
}

TEST(RoutingService, ExpiredDeadlineIsDroppedAtDequeue) {
  const std::string text = workload_text(9, 12, 7);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);

  serve::RouteRequest req;
  req.session_key = session->key;
  req.deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(1);  // already expired
  const serve::RouteResponse resp = service.route(std::move(req));
  EXPECT_EQ(resp.status, serve::RouteStatus::kExpired);
  EXPECT_EQ(service.snapshot().requests_expired, 1u);
}

TEST(RoutingService, CancelledRequestNeverRoutes) {
  const std::string text = workload_text(9, 12, 7);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);

  serve::RouteRequest req;
  req.session_key = session->key;
  req.cancel = std::make_shared<std::atomic<bool>>(true);
  const serve::RouteResponse resp = service.route(std::move(req));
  EXPECT_EQ(resp.status, serve::RouteStatus::kCancelled);
  EXPECT_EQ(service.snapshot().nets_routed, 0u);
}

// ------------------------------------------------------------------ protocol

/// Runs a scripted connection and returns everything the service wrote.
std::string run_protocol(const std::string& script,
                         std::size_t workers = 1) {
  serve::RoutingService::Options opts;
  opts.workers = workers;
  serve::RoutingService service(opts);
  std::istringstream in(script);
  std::ostringstream out;
  serve::serve_connection(service, in, out);
  return out.str();
}

/// Reads one framed response (status line + counted body) off \p in.
struct Frame {
  std::string status;
  std::string body;
};

Frame next_frame(std::istringstream& in) {
  Frame f;
  EXPECT_TRUE(static_cast<bool>(std::getline(in, f.status)));
  std::istringstream is(f.status);
  std::string kw;
  std::size_t nbytes = 0;
  is >> kw;
  if (kw == "OK" && (is >> nbytes) && nbytes > 0) {
    f.body.resize(nbytes);
    in.read(f.body.data(), static_cast<std::streamsize>(nbytes));
  }
  return f;
}

TEST(Protocol, LoadRouteStatsQuitRoundTrip) {
  const std::string text(kTinyLayout);
  const std::string key = serve::SessionCache::content_key(text);
  const std::string script = "LOAD " + std::to_string(text.size()) + "\n" +
                             text + "LOAD " + std::to_string(text.size()) +
                             "\n" + text + "ROUTE " + key +
                             " threads=1\nSTATS\nQUIT\n";
  std::istringstream replies(run_protocol(script));

  const Frame load1 = next_frame(replies);
  EXPECT_NE(load1.status.find("OK 0 session=" + key), std::string::npos);
  EXPECT_NE(load1.status.find("cached=0"), std::string::npos);
  const Frame load2 = next_frame(replies);
  EXPECT_NE(load2.status.find("cached=1"), std::string::npos);

  const Frame route = next_frame(replies);
  ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
  EXPECT_NE(route.status.find("routed=1 failed=0"), std::string::npos);
  // The body is a parseable route dump that matches a direct route.
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult direct = route::NetlistRouter(lay).route_all();
  const route::NetlistResult parsed = io::read_routes_string(route.body, lay);
  EXPECT_EQ(parsed.total_wirelength, direct.total_wirelength);
  EXPECT_EQ(parsed.routed, direct.routed);

  const Frame stats = next_frame(replies);
  EXPECT_EQ(stats.status.rfind("OK ", 0), 0u);
  EXPECT_NE(stats.body.find("requests_ok 1"), std::string::npos);
  EXPECT_NE(stats.body.find("cache_hits"), std::string::npos);

  const Frame bye = next_frame(replies);
  EXPECT_EQ(bye.status, "OK 0 bye");
}

TEST(Protocol, MalformedFramesGetErrNotCrash) {
  const std::string text(kTinyLayout);
  // Bad *command lines* are recoverable: the stream position is still at a
  // line boundary, so the connection continues.
  const std::string script =
      "NONSENSE\n"                      // unknown command
      "ROUTE\n"                         // missing session key
      "ROUTE deadbeefdeadbeef\n"        // unknown session
      "ROUTE k mode=banana\n"           // bad option value
      "ROUTE k frobnicate=1\n"          // unknown option
      "ROUTE k threads\n"               // not key=value
      "LOAD " + std::to_string(text.size()) + "\n" + text +  // recovers
      "QUIT\n";
  std::istringstream replies(run_protocol(script));
  for (int i = 0; i < 6; ++i) {
    const Frame f = next_frame(replies);
    EXPECT_EQ(f.status.rfind("ERR ", 0), 0u) << "frame " << i << ": "
                                             << f.status;
  }
  // The connection survived six bad frames and still serves real ones.
  const Frame load = next_frame(replies);
  EXPECT_EQ(load.status.rfind("OK 0 session=", 0), 0u) << load.status;
  const Frame bye = next_frame(replies);
  EXPECT_EQ(bye.status, "OK 0 bye");
}

TEST(Protocol, UnframeableLoadDropsConnection) {
  // A LOAD whose byte count cannot be parsed leaves the body length — and
  // therefore the stream position — unknown; the connection must drop
  // instead of parsing body bytes as commands (a QUIT inside a layout
  // would otherwise kill a pipelined client's session).
  for (const char* bad : {"LOAD\n", "LOAD abc\n",
                          "LOAD 99999999999999999999\n"}) {
    const std::string out = run_protocol(std::string(bad) + "QUIT\n");
    EXPECT_EQ(out.rfind("ERR ", 0), 0u) << bad;
    EXPECT_EQ(out.find("OK 0 bye"), std::string::npos)
        << "connection continued after " << bad;
  }
  // An oversized but well-formed count keeps framing: the declared body is
  // skipped and the connection continues (here the body is absent, so the
  // skip hits EOF and the connection ends — without misparsing).
  const std::string out = run_protocol("LOAD 67108865\nQUIT\n");
  EXPECT_NE(out.find("larger than 64 MiB"), std::string::npos);
}

TEST(Protocol, CoordinateBoundRoutesAndBeyondIsRejected) {
  // Corner to corner of the largest legal plane: 2^33 of wire at cost
  // scale 64 stays clear of int64 overflow (the sanitizer CI job runs
  // this).  One unit further is refused at LOAD.
  const auto layout_text = [](const std::string& hi) {
    return "boundary -2147483647 -2147483647 " + hi + " 2147483647\n"
           "cell c 0 0 1000 1000\nterm c t 1000 500\n"
           "pad p -2147483647 -2147483647\npad q 2147483647 2147483647\n"
           "net n pad.p pad.q c.t\n";
  };
  const std::string at = layout_text("2147483647");
  const std::string beyond = layout_text("2147483648");
  const std::string key = serve::SessionCache::content_key(at);
  std::istringstream replies(run_protocol(
      "LOAD " + std::to_string(at.size()) + "\n" + at + "ROUTE " + key +
      "\nLOAD " + std::to_string(beyond.size()) + "\n" + beyond + "QUIT\n"));
  EXPECT_EQ(next_frame(replies).status.rfind("OK 0 session=" + key, 0), 0u);
  const Frame route = next_frame(replies);
  EXPECT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
  EXPECT_NE(route.status.find("routed=1 failed=0"), std::string::npos)
      << route.status;
  const Frame rejected = next_frame(replies);
  EXPECT_EQ(rejected.status.rfind("ERR ", 0), 0u) << rejected.status;
  EXPECT_NE(rejected.status.find("coordinate-out-of-range"),
            std::string::npos)
      << rejected.status;
  EXPECT_EQ(next_frame(replies).status, "OK 0 bye");
}

TEST(Protocol, TruncatedLoadBodyDropsConnection) {
  // 100 declared bytes, far fewer supplied: framing is unrecoverable.
  const std::string out = run_protocol("LOAD 100\nboundary 0 0 9 9\n");
  EXPECT_EQ(out.rfind("ERR ", 0), 0u);
  EXPECT_NE(out.find("truncated"), std::string::npos);
}

TEST(Protocol, OverlongCommandLineGetsErrAndRecovers) {
  // A peer that streams an enormous "line" must not buffer unbounded
  // memory; the overlong line is discarded to its LF and the connection
  // keeps serving.
  const std::string out = run_protocol(
      std::string(serve::kMaxCommandLine + 100, 'x') + "\nQUIT\n");
  EXPECT_EQ(out.rfind("ERR ", 0), 0u) << out.substr(0, 40);
  EXPECT_NE(out.find("command line exceeds"), std::string::npos);
  EXPECT_NE(out.find("OK 0 bye"), std::string::npos)
      << "connection must survive an overlong line";
}

TEST(Protocol, ErrEchoesAreClampedToPrintable) {
  // Untrusted tokens echo back in ERR reasons; terminal escapes and other
  // control bytes must never reach the client (or an operator's terminal).
  const std::string out = run_protocol("FROB\x1b[31m\x01\x02\nQUIT\n");
  EXPECT_EQ(out.rfind("ERR ", 0), 0u);
  for (const char c : out) {
    const unsigned char u = static_cast<unsigned char>(c);
    EXPECT_TRUE(u == '\n' || (u >= 0x20 && u < 0x7f))
        << "control byte 0x" << std::hex << static_cast<int>(u)
        << " leaked into a response";
  }
  // And very long reasons are truncated, not amplified.
  const std::string flood = run_protocol(
      "ROUTE k " + std::string(2000, 'y') + "=1\nQUIT\n");
  const std::size_t first_line_len = flood.find('\n');
  ASSERT_NE(first_line_len, std::string::npos);
  EXPECT_LE(first_line_len, 300u);
}

TEST(Protocol, RouteNetSubset) {
  const std::string text = workload_text(9, 12, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult reference = route::NetlistRouter(lay).route_all();
  ASSERT_GE(lay.nets().size(), 3u);
  const std::string& a = lay.nets()[2].name();
  const std::string& b = lay.nets()[0].name();
  const std::string key = serve::SessionCache::content_key(text);

  const std::string script =
      "LOAD " + std::to_string(text.size()) + "\n" + text +
      "ROUTE " + key + " nets=" + a + "," + b + "\n" +   // named subset
      "ROUTE " + key + " nets=" + a + "," + a + "\n" +   // duplicate: once
      "ROUTE " + key + " nets=bogus\n" +                 // unknown net
      "QUIT\n";
  std::istringstream replies(run_protocol(script));

  (void)next_frame(replies);  // LOAD
  const Frame subset = next_frame(replies);
  ASSERT_EQ(subset.status.rfind("OK ", 0), 0u) << subset.status;
  EXPECT_NE(subset.status.find("routed=2 failed=0"), std::string::npos);
  // The dump covers exactly the requested nets and reproduces the full
  // run's routes for them bit-for-bit.
  const route::NetlistResult parsed = io::read_routes_string(subset.body, lay);
  EXPECT_EQ(parsed.routed, 2u);
  EXPECT_EQ(parsed.routes[0].segments, reference.routes[0].segments);
  EXPECT_EQ(parsed.routes[2].segments, reference.routes[2].segments);
  EXPECT_EQ(subset.body.rfind("route " + a + " ", 0), 0u)
      << "dump order must follow the request list";

  const Frame dedup = next_frame(replies);
  EXPECT_NE(dedup.status.find("routed=1 "), std::string::npos)
      << "duplicate names must route once: " << dedup.status;

  const Frame unknown = next_frame(replies);
  EXPECT_EQ(unknown.status.rfind("ERR ", 0), 0u);
  EXPECT_NE(unknown.status.find("unknown net 'bogus'"), std::string::npos);

  const Frame bye = next_frame(replies);
  EXPECT_EQ(bye.status, "OK 0 bye");
}

/// Runs \p parse on \p args and checks the request's deadline was made
/// absolute at parse time, \p ms after the call.
template <typename Parse>
serve::RouteRequest parse_with_deadline(Parse parse, const std::string& args,
                                        unsigned long long ms) {
  const auto budget = std::chrono::milliseconds(ms);
  const auto before = std::chrono::steady_clock::now();
  serve::RouteRequest req = parse(args);
  const auto after = std::chrono::steady_clock::now();
  EXPECT_GE(req.deadline, before + budget) << args;
  EXPECT_LE(req.deadline, after + budget) << args;
  return req;
}

TEST(Protocol, ParseRouteCommand) {
  const serve::RouteRequest req = parse_with_deadline(
      serve::parse_route_command,
      " abc123 mode=sequential threads=4 deadline_ms=250 sorted=0"
      " segments=0",
      250);
  EXPECT_EQ(req.session_key, "abc123");
  const route::NetlistOptions& opts =
      std::get<serve::RouteRequest::Route>(req.payload).opts;
  EXPECT_EQ(opts.mode, route::NetlistMode::kSequential);
  EXPECT_EQ(opts.threads, 4u);
  EXPECT_FALSE(opts.sorted_dispatch);
  EXPECT_FALSE(opts.steiner.connect_to_segments);
  EXPECT_FALSE(req.trace);
  EXPECT_EQ(serve::parse_route_command("k").deadline,
            std::chrono::steady_clock::time_point{});
  EXPECT_THROW((void)serve::parse_route_command(""), std::runtime_error);
  EXPECT_THROW((void)serve::parse_route_command("k deadline_ms=-1"),
               std::runtime_error);
}

TEST(Protocol, ParseRouteCommandNets) {
  const serve::RouteRequest req =
      serve::parse_route_command("key nets=clk,rst,d0");
  EXPECT_EQ(req.net_names, (std::vector<std::string>{"clk", "rst", "d0"}));
  EXPECT_TRUE(serve::parse_route_command("key").net_names.empty());
  // Empty items would silently route nothing — malformed.
  EXPECT_THROW((void)serve::parse_route_command("k nets=a,,b"),
               std::runtime_error);
  EXPECT_THROW((void)serve::parse_route_command("k nets=a,"),
               std::runtime_error);
}

TEST(Protocol, ParseRerouteCommand) {
  const serve::RouteRequest req =
      serve::parse_reroute_command("key nets=clk,rst threads=2");
  EXPECT_EQ(req.session_key, "key");
  EXPECT_EQ(req.net_names, (std::vector<std::string>{"clk", "rst"}));
  ASSERT_TRUE(std::holds_alternative<serve::RouteRequest::Reroute>(
      req.payload));
  const route::NetlistOptions& opts =
      std::get<serve::RouteRequest::Reroute>(req.payload).opts;
  EXPECT_EQ(opts.mode, route::NetlistMode::kSequential);
  EXPECT_EQ(opts.threads, 2u);
  // nets= is mandatory: an empty rip-up set would silently be a plain
  // route.  mode= is rejected either way — REROUTE is sequential by
  // definition, and a silently-ignored mode=independent would mislead.
  EXPECT_THROW((void)serve::parse_reroute_command("key"), std::runtime_error);
  EXPECT_THROW((void)serve::parse_reroute_command("key mode=independent"),
               std::runtime_error);
  EXPECT_THROW((void)serve::parse_reroute_command("key mode=sequential"),
               std::runtime_error);
  EXPECT_THROW((void)serve::parse_reroute_command("key nets=a,"),
               std::runtime_error);
  // ROUTE does not become a REROUTE by accident.
  EXPECT_TRUE(std::holds_alternative<serve::RouteRequest::Route>(
      serve::parse_route_command("key nets=a").payload));
}

TEST(Protocol, RerouteRoundTrip) {
  // Blocking-path REROUTE end to end: the dump must be restricted to the
  // ripped nets and reproduce the rip-up driver bit-for-bit; the meta
  // totals cover the whole netlist (the remainder is part of the result).
  const std::string text = workload_text(9, 12, 7);
  const layout::Layout lay = io::read_layout_string(text);
  ASSERT_GE(lay.nets().size(), 4u);
  const std::string& a = lay.nets()[3].name();
  const std::string& b = lay.nets()[1].name();
  const std::string key = serve::SessionCache::content_key(text);

  route::NetlistOptions ropts;
  ropts.mode = route::NetlistMode::kSequential;
  ropts.reroute = {3, 1};
  const route::NetlistResult want =
      route::NetlistRouter(lay).route_all(ropts);
  const std::string want_dump =
      io::write_routes_string(lay, want, ropts.reroute);

  const std::string script =
      "LOAD " + std::to_string(text.size()) + "\n" + text +
      "REROUTE " + key + " nets=" + a + "," + b + "\n" +
      "REROUTE " + key + " nets=" + a + "," + a + "\n" +  // dedup: rip once
      "REROUTE " + key + "\n" +                           // missing nets=
      "REROUTE " + key + " nets=bogus\n" +                // unknown net
      "QUIT\n";
  std::istringstream replies(run_protocol(script));

  (void)next_frame(replies);  // LOAD
  const Frame reroute = next_frame(replies);
  ASSERT_EQ(reroute.status.rfind("OK ", 0), 0u) << reroute.status;
  EXPECT_NE(reroute.status.find(
                "routed=" + std::to_string(want.routed) + " failed=" +
                std::to_string(want.failed) + " wirelength=" +
                std::to_string(want.total_wirelength)),
            std::string::npos)
      << reroute.status;
  EXPECT_EQ(reroute.body, want_dump);
  EXPECT_EQ(reroute.body.rfind("route " + a + " ", 0), 0u)
      << "dump order must follow the rip-up list";

  const Frame dedup = next_frame(replies);
  ASSERT_EQ(dedup.status.rfind("OK ", 0), 0u) << dedup.status;
  const route::NetlistResult dedup_parsed =
      io::read_routes_string(dedup.body, lay);
  EXPECT_EQ(dedup_parsed.routed + dedup_parsed.failed, 1u)
      << "duplicate names must rip once";

  const Frame missing = next_frame(replies);
  EXPECT_EQ(missing.status.rfind("ERR ", 0), 0u);
  EXPECT_NE(missing.status.find("REROUTE needs nets="), std::string::npos);

  const Frame unknown = next_frame(replies);
  EXPECT_EQ(unknown.status.rfind("ERR ", 0), 0u);
  EXPECT_NE(unknown.status.find("unknown net 'bogus'"), std::string::npos);

  const Frame bye = next_frame(replies);
  EXPECT_EQ(bye.status, "OK 0 bye");
}

// ---------------------------------------------------------------- OPTIMIZE

TEST(Protocol, ParseOptimizeCommand) {
  const serve::RouteRequest req = parse_with_deadline(
      serve::parse_optimize_command,
      " abc123 passes=4 budget_ms=250 deadline_ms=500 segments=0", 500);
  EXPECT_EQ(req.session_key, "abc123");
  ASSERT_TRUE(std::holds_alternative<route::OptimizeOptions>(req.payload));
  const route::OptimizeOptions& opts =
      std::get<route::OptimizeOptions>(req.payload);
  EXPECT_EQ(opts.max_passes, 4u);
  EXPECT_EQ(opts.budget.count(), 250);
  EXPECT_FALSE(opts.steiner.connect_to_segments);

  EXPECT_THROW((void)serve::parse_optimize_command(""), std::runtime_error);
  EXPECT_THROW((void)serve::parse_optimize_command("k passes=0"),
               std::runtime_error);
  EXPECT_THROW((void)serve::parse_optimize_command("k passes=1025"),
               std::runtime_error);
  // The engine is sequential whole-netlist by definition: mode=, nets=,
  // threads=, sorted= must be rejected, not silently ignored.
  for (const char* bad : {"k mode=independent", "k nets=a", "k threads=2",
                          "k sorted=1"}) {
    EXPECT_THROW((void)serve::parse_optimize_command(bad), std::runtime_error)
        << bad;
  }
  // ROUTE does not become an OPTIMIZE by accident, and an OPTIMIZE
  // without passes= keeps the engine's own default.
  EXPECT_TRUE(std::holds_alternative<serve::RouteRequest::Route>(
      serve::parse_route_command("key").payload));
  EXPECT_EQ(std::get<route::OptimizeOptions>(
                serve::parse_optimize_command("key").payload)
                .max_passes,
            route::OptimizeOptions{}.max_passes);
}

TEST(Protocol, DeadlineAndBudgetCappedAt24Hours) {
  // deadline_ms used to feed parse_count's full unsigned range straight
  // into std::chrono::milliseconds (a *signed* rep): a huge value narrowed
  // to a negative duration, and `now + deadline` could overflow the clock
  // rep outright.  The cap answers ERR instead; exactly 24h still parses.
  const std::string max = std::to_string(serve::kMaxDeadlineMs);
  (void)parse_with_deadline(serve::parse_route_command,
                            "k deadline_ms=" + max, serve::kMaxDeadlineMs);
  EXPECT_THROW((void)serve::parse_route_command("k deadline_ms=86400001"),
               std::runtime_error);
  EXPECT_THROW((void)serve::parse_route_command(
                   "k deadline_ms=18446744073709551615"),
               std::runtime_error);
  EXPECT_THROW((void)serve::parse_reroute_command(
                   "k nets=a deadline_ms=86400001"),
               std::runtime_error);
  EXPECT_EQ(std::get<route::OptimizeOptions>(
                serve::parse_optimize_command("k budget_ms=" + max).payload)
                .budget.count(),
            static_cast<long long>(serve::kMaxDeadlineMs));
  EXPECT_THROW((void)serve::parse_optimize_command("k budget_ms=86400001"),
               std::runtime_error);
  EXPECT_THROW((void)serve::parse_optimize_command("k deadline_ms=86400001"),
               std::runtime_error);

  // End to end on the blocking front-end: the oversized value answers ERR
  // and the connection keeps serving.
  const std::string out = run_protocol(
      "ROUTE k deadline_ms=18446744073709551615\nQUIT\n");
  EXPECT_EQ(out.rfind("ERR ", 0), 0u) << out.substr(0, 60);
  EXPECT_NE(out.find("86400000"), std::string::npos);
  EXPECT_NE(out.find("OK 0 bye"), std::string::npos);
}

/// One parsed `PASS <i> wirelength=<w> overflow=<o>` progress line.
struct PassLine {
  std::size_t pass = 0;
  long long wirelength = 0;
  long long overflow = 0;
};

/// Reads an OPTIMIZE reply: any number of PASS progress lines, then the
/// terminating OK/ERR frame.  (next_frame alone would misparse the PASS
/// lines as status lines.)
std::pair<std::vector<PassLine>, Frame> next_optimize_reply(
    std::istringstream& in) {
  std::vector<PassLine> passes;
  std::string line;
  for (;;) {
    const std::istringstream::pos_type pos = in.tellg();
    if (!std::getline(in, line)) {
      ADD_FAILURE() << "stream ended inside an OPTIMIZE reply";
      return {passes, {}};
    }
    if (line.rfind("PASS ", 0) != 0) {
      in.seekg(pos);
      return {passes, next_frame(in)};
    }
    PassLine p;
    EXPECT_EQ(std::sscanf(line.c_str(), "PASS %zu wirelength=%lld overflow=%lld",
                          &p.pass, &p.wirelength, &p.overflow),
              3)
        << line;
    passes.push_back(p);
  }
}

TEST(Protocol, OptimizeRoundTripStreamsPasses) {
  const std::string text = workload_text(12, 24, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::OptimizeReport direct = route::Optimizer(lay).run();
  const std::string key = serve::SessionCache::content_key(text);

  const std::string script =
      "LOAD " + std::to_string(text.size()) + "\n" + text +
      "OPTIMIZE " + key + "\n" +
      "OPTIMIZE deadbeefdeadbeef\n" +   // unknown session
      "OPTIMIZE " + key + " frob=1\n" + // unknown option
      "QUIT\n";
  std::istringstream replies(run_protocol(script));

  (void)next_frame(replies);  // LOAD
  const auto [passes, frame] = next_optimize_reply(replies);
  ASSERT_EQ(frame.status.rfind("OK ", 0), 0u) << frame.status;

  // One PASS line per recorded pass, numbered from 1, and — the protocol's
  // promise — non-increasing in both wirelength and overflow.
  ASSERT_EQ(passes.size(), direct.passes.size());
  for (std::size_t i = 0; i < passes.size(); ++i) {
    EXPECT_EQ(passes[i].pass, i + 1);
    EXPECT_EQ(passes[i].wirelength, direct.passes[i].wirelength);
    EXPECT_EQ(static_cast<std::size_t>(passes[i].overflow),
              direct.passes[i].overflow);
    if (i > 0) {
      EXPECT_LE(passes[i].wirelength, passes[i - 1].wirelength);
      EXPECT_LE(passes[i].overflow, passes[i - 1].overflow);
    }
  }

  // The meta summarizes the run; the body is the full final routing and
  // reproduces the direct optimizer bit-for-bit.
  EXPECT_NE(frame.status.find(
                "passes=" + std::to_string(direct.passes.size()) + " routed=" +
                std::to_string(direct.result.routed) + " failed=" +
                std::to_string(direct.result.failed) + " wirelength=" +
                std::to_string(direct.result.total_wirelength) + " overflow=" +
                std::to_string(direct.final_overflow())),
            std::string::npos)
      << frame.status;
  const route::NetlistResult parsed = io::read_routes_string(frame.body, lay);
  EXPECT_EQ(parsed.total_wirelength, direct.result.total_wirelength);
  EXPECT_EQ(parsed.routed, direct.result.routed);

  const auto [no_passes, not_found] = next_optimize_reply(replies);
  EXPECT_TRUE(no_passes.empty());
  EXPECT_EQ(not_found.status.rfind("ERR ", 0), 0u);
  EXPECT_NE(not_found.status.find("session_not_found"), std::string::npos);

  const auto [no_passes2, bad_opt] = next_optimize_reply(replies);
  EXPECT_TRUE(no_passes2.empty());
  EXPECT_EQ(bad_opt.status.rfind("ERR ", 0), 0u);
  EXPECT_NE(bad_opt.status.find("unknown option"), std::string::npos);

  const Frame bye = next_frame(replies);
  EXPECT_EQ(bye.status, "OK 0 bye");
}

TEST(RoutingService, OptimizeRequestCountsMetrics) {
  const std::string text = workload_text(12, 24, 7);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);

  serve::RouteRequest req;
  req.session_key = session->key;
  req.payload = route::OptimizeOptions{};
  const serve::RouteResponse resp = service.route(std::move(req));
  ASSERT_TRUE(resp.ok());
  ASSERT_FALSE(resp.passes.empty());
  EXPECT_EQ(resp.result.total_wirelength, resp.passes.back().wirelength);

  const serve::MetricsSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.optimizes_ok, 1u);
  EXPECT_EQ(snap.optimize_passes, resp.passes.size() - 1);
  EXPECT_NE(snap.to_text().find("optimizes_ok 1"), std::string::npos);
}

// ------------------------------------------------------------ observability

TEST(Histogram, BucketBoundaries) {
  // bucket 0 = {0}; bucket k >= 1 covers [2^(k-1), 2^k - 1].
  EXPECT_EQ(serve::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(serve::Histogram::bucket_index(1), 1u);
  EXPECT_EQ(serve::Histogram::bucket_index(2), 2u);
  EXPECT_EQ(serve::Histogram::bucket_index(3), 2u);
  EXPECT_EQ(serve::Histogram::bucket_index(4), 3u);
  EXPECT_EQ(serve::Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(serve::Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(serve::Histogram::bucket_index(~std::uint64_t{0}), 64u);
  EXPECT_EQ(serve::Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(serve::Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(serve::Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(serve::Histogram::bucket_upper(11), 2047u);
  EXPECT_EQ(serve::Histogram::bucket_upper(64), ~std::uint64_t{0});
  // Every value lands in the bucket whose range contains it.
  for (std::uint64_t v : {5ull, 63ull, 64ull, 999ull, 1ull << 40}) {
    const std::size_t b = serve::Histogram::bucket_index(v);
    EXPECT_LE(v, serve::Histogram::bucket_upper(b)) << v;
    if (b > 1) {
      EXPECT_GT(v, serve::Histogram::bucket_upper(b - 1)) << v;
    }
  }
}

TEST(Histogram, RecordAndPercentiles) {
  serve::Histogram h;
  EXPECT_EQ(h.snapshot().percentile(50), 0u);  // empty -> 0
  // 90 fast samples (~100us) + 10 slow (~100ms): p50 reports the fast
  // bucket's upper bound, p99 the slow one's.
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(100'000);
  EXPECT_EQ(h.total_recorded(), 100u);
  const serve::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.percentile(50),
            serve::Histogram::bucket_upper(serve::Histogram::bucket_index(100)));
  EXPECT_EQ(s.percentile(99), serve::Histogram::bucket_upper(
                                  serve::Histogram::bucket_index(100'000)));
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 90u * 100u + 10u * 100'000u);
  // The record path must stay lock-free — that is the whole point of
  // replacing the mutexed window on the hot path.
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
}

TEST(Histogram, AgreesWithLatencyWindowWithinOneBucket) {
  // The acceptance criterion: on a uniform workload the log2 histogram's
  // p50/p95/p99 land within one bucket of the exact sliding window's.
  serve::Histogram hist;
  serve::LatencyWindow window(4096);
  std::uint64_t x = 0x243f6a8885a308d3ull;  // deterministic xorshift
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t sample = 200 + x % 1800;  // uniform-ish 200..1999us
    hist.record(sample);
    window.record(sample);
  }
  const serve::Histogram::Snapshot snap = hist.snapshot();
  const std::vector<std::uint64_t> exact = window.percentiles({50, 95, 99});
  const double qs[] = {50, 95, 99};
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t hist_p = snap.percentile(qs[i]);
    const auto hist_bucket = serve::Histogram::bucket_index(hist_p);
    const auto exact_bucket = serve::Histogram::bucket_index(exact[i]);
    EXPECT_LE(hist_bucket > exact_bucket ? hist_bucket - exact_bucket
                                         : exact_bucket - hist_bucket,
              1u)
        << "q=" << qs[i] << " hist=" << hist_p << " exact=" << exact[i];
  }
}

TEST(LatencyWindow, PercentilesFromOneSnapshotMatchSingleQueries) {
  serve::LatencyWindow w(128);
  for (std::uint64_t v = 1; v <= 100; ++v) w.record(v);
  const std::vector<std::uint64_t> multi = w.percentiles({0, 50, 95, 99, 100});
  EXPECT_EQ(multi[0], w.percentile(0));
  EXPECT_EQ(multi[1], w.percentile(50));
  EXPECT_EQ(multi[2], w.percentile(95));
  EXPECT_EQ(multi[3], w.percentile(99));
  EXPECT_EQ(multi[4], w.percentile(100));
  EXPECT_EQ(multi[1], 50u);   // nearest-rank on 1..100
  EXPECT_EQ(multi[4], 100u);
}

TEST(SlowRequestRing, ThresholdAndTopN) {
  serve::SlowRequestRing ring(/*capacity=*/3, /*threshold_us=*/1000);
  const auto rec = [](std::uint64_t id, std::uint64_t total) {
    serve::SlowRecord r;
    r.id = id;
    r.verb = serve::VerbKind::kRoute;
    r.trace.total_us = total;
    return r;
  };
  ring.offer(rec(1, 500));  // below threshold: dropped
  ring.offer(rec(2, 1500));
  ring.offer(rec(3, 3000));
  ring.offer(rec(4, 2000));
  ring.offer(rec(5, 1200));  // ring full; displaces nothing (min is 1500)
  ring.offer(rec(6, 9000));  // displaces the min (1500)
  const std::vector<serve::SlowRecord> top = ring.top(10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 6u);  // slowest first
  EXPECT_EQ(top[1].id, 3u);
  EXPECT_EQ(top[2].id, 4u);
  EXPECT_EQ(ring.top(1).size(), 1u);
  EXPECT_EQ(ring.top(1)[0].id, 6u);
}

TEST(RoutingService, TraceSpansMonotoneAndSumToTotal) {
  const std::string text = workload_text(9, 12, 7);
  serve::RoutingService::Options opts;
  opts.workers = 2;
  serve::RoutingService service(opts);
  const auto session = service.load(text);

  serve::RouteRequest req;
  req.session_key = session->key;
  req.trace = true;
  req.received = std::chrono::steady_clock::now();
  const serve::RouteResponse resp = service.route(std::move(req));
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.traced);
  const serve::RequestTrace& t = resp.trace;
  // Offsets from one submission origin must be monotone...
  EXPECT_LE(t.enqueue_us, t.dequeue_us);
  EXPECT_LE(t.dequeue_us, t.env_us);
  EXPECT_LE(t.env_us, t.exec_us);
  EXPECT_LE(t.exec_us, t.total_us);
  // ...and the rendered deltas telescope to exactly the reported latency.
  EXPECT_EQ(t.total_us, static_cast<std::uint64_t>(resp.latency.count()));
  const std::string meta = t.render_meta();
  EXPECT_NE(meta.find("span_admit_us="), std::string::npos);
  EXPECT_NE(meta.find("span_parse_us="), std::string::npos);

  // Fail-fast paths skip worker stamps; the clamp must still produce a
  // monotone (zero-width) breakdown.
  serve::RouteRequest missing;
  missing.session_key = "feedfacefeedface";
  missing.trace = true;
  const serve::RouteResponse fail = service.route(std::move(missing));
  EXPECT_EQ(fail.status, serve::RouteStatus::kSessionNotFound);
  EXPECT_LE(fail.trace.enqueue_us, fail.trace.dequeue_us);
  EXPECT_LE(fail.trace.dequeue_us, fail.trace.env_us);
  EXPECT_LE(fail.trace.env_us, fail.trace.exec_us);
  EXPECT_LE(fail.trace.exec_us, fail.trace.total_us);
}

/// Pulls `<key>=<number>` out of a status line; fails the test if absent.
std::uint64_t meta_u64(const std::string& status, const std::string& key) {
  const std::size_t pos = status.find(" " + key + "=");
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << status;
  if (pos == std::string::npos) return 0;
  return std::stoull(status.substr(pos + key.size() + 2));
}

TEST(Protocol, TraceKnobEchoesSpansThatSumToTotal) {
  const std::string text(kTinyLayout);
  const std::string key = serve::SessionCache::content_key(text);
  const std::string script = "LOAD " + std::to_string(text.size()) + "\n" +
                             text + "ROUTE " + key + " trace=1\n" + "ROUTE " +
                             key + "\n" + "ROUTE " + key + " trace=2\nQUIT\n";
  std::istringstream replies(run_protocol(script));
  (void)next_frame(replies);  // LOAD

  const Frame traced = next_frame(replies);
  ASSERT_EQ(traced.status.rfind("OK ", 0), 0u) << traced.status;
  const std::uint64_t total = meta_u64(traced.status, "total_us");
  const std::uint64_t sum = meta_u64(traced.status, "span_admit_us") +
                            meta_u64(traced.status, "span_queue_us") +
                            meta_u64(traced.status, "span_env_us") +
                            meta_u64(traced.status, "span_exec_us") +
                            meta_u64(traced.status, "span_finish_us");
  EXPECT_EQ(sum, total) << traced.status;
  EXPECT_NE(traced.status.find("span_parse_us="), std::string::npos);

  // trace=0/absent: no span keys in the meta.
  const Frame untraced = next_frame(replies);
  ASSERT_EQ(untraced.status.rfind("OK ", 0), 0u);
  EXPECT_EQ(untraced.status.find("span_"), std::string::npos);

  // trace= is a strict bool.
  const Frame bad = next_frame(replies);
  EXPECT_EQ(bad.status.rfind("ERR ", 0), 0u);
  EXPECT_NE(bad.status.find("trace must be 0 or 1"), std::string::npos);
}

TEST(Protocol, TraceVerbDumpsSlowestRequests) {
  const std::string text(kTinyLayout);
  const std::string key = serve::SessionCache::content_key(text);
  std::string script = "LOAD " + std::to_string(text.size()) + "\n" + text;
  for (int i = 0; i < 3; ++i) script += "ROUTE " + key + "\n";
  script += "TRACE n=2\nTRACE\nTRACE n=0\nTRACE n=257\nTRACE frob=1\nQUIT\n";
  std::istringstream replies(run_protocol(script));
  (void)next_frame(replies);  // LOAD
  for (int i = 0; i < 3; ++i) (void)next_frame(replies);

  const Frame two = next_frame(replies);
  ASSERT_EQ(two.status.rfind("OK ", 0), 0u) << two.status;
  EXPECT_EQ(meta_u64(two.status, "count"), 2u);
  EXPECT_NE(two.status.find("threshold_ms=0"), std::string::npos);
  // One line per record, slowest first, each with the span fields.
  std::istringstream body(two.body);
  std::string line;
  std::uint64_t prev = ~std::uint64_t{0};
  int lines = 0;
  while (std::getline(body, line)) {
    ASSERT_EQ(line.rfind("trace ", 0), 0u) << line;
    // The cold LOAD builds on a worker, so it is traced like the ROUTEs.
    EXPECT_TRUE(line.find("verb=route") != std::string::npos ||
                line.find("verb=load") != std::string::npos)
        << line;
    EXPECT_NE(line.find("status=ok"), std::string::npos) << line;
    const std::uint64_t total = meta_u64(line, "total_us");
    EXPECT_LE(total, prev) << "records must be sorted slowest-first";
    prev = total;
    ++lines;
  }
  EXPECT_EQ(lines, 2);

  const Frame all = next_frame(replies);
  ASSERT_EQ(all.status.rfind("OK ", 0), 0u);
  // Default n=32 covers all four records: the LOAD and three ROUTEs.
  EXPECT_EQ(meta_u64(all.status, "count"), 4u);

  for (const char* what : {"n=0", "n=257", "frob"}) {
    const Frame bad = next_frame(replies);
    EXPECT_EQ(bad.status.rfind("ERR ", 0), 0u) << what << ": " << bad.status;
  }
  EXPECT_EQ(next_frame(replies).status, "OK 0 bye");
}

TEST(Protocol, StatsCarriesVerbShardsUptimeAndVersion) {
  const std::string text(kTinyLayout);
  const std::string key = serve::SessionCache::content_key(text);
  const std::string script = "LOAD " + std::to_string(text.size()) + "\n" +
                             text + "ROUTE " + key + "\nSTATS\nSTATS\n"
                             "HELLO\nQUIT\n";
  std::istringstream replies(run_protocol(script));
  (void)next_frame(replies);  // LOAD
  (void)next_frame(replies);  // ROUTE
  (void)next_frame(replies);  // first STATS warms the stats shard
  const Frame stats = next_frame(replies);
  EXPECT_NE(stats.body.find("verb_route_count 1"), std::string::npos);
  EXPECT_NE(stats.body.find("verb_optimize_count 0"), std::string::npos);
  // The observer observes itself: the first STATS render was recorded into
  // the stats shard before this one rendered.
  EXPECT_NE(stats.body.find("verb_stats_count 1"), std::string::npos);
  EXPECT_NE(stats.body.find("uptime_s "), std::string::npos);
  EXPECT_NE(stats.body.find("protocol_version 2"), std::string::npos);
  // ROUTE's latency shows up in both the global histogram and its shard.
  EXPECT_NE(stats.body.find("latency_p50_us "), std::string::npos);
  EXPECT_NE(stats.body.find("verb_route_p50_us "), std::string::npos);

  const Frame hello = next_frame(replies);
  EXPECT_NE(hello.status.find("uptime_s="), std::string::npos);
  EXPECT_NE(hello.body.find("verb TRACE args=0 knobs=n"), std::string::npos);
  EXPECT_NE(hello.body.find("trace"), std::string::npos);
}

TEST(RoutingService, CounterConservationUnderConcurrentMixedBurst) {
  // Every submission must land in exactly one outcome counter:
  // submitted == ok + rejected + expired + cancelled + not_found + errored.
  // The burst mixes all the paths: routable requests, unknown sessions,
  // pre-expired deadlines, pre-cancelled tokens (the disconnect path),
  // unknown net names (the admission ERR path), and enough pressure on a
  // tiny queue to draw rejections.
  const std::string text = workload_text(9, 12, 7);
  serve::RoutingService::Options opts;
  opts.workers = 2;
  opts.queue_capacity = 2;  // small: saturation produces kRejected
  serve::RoutingService service(opts);
  const auto session = service.load(text);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 12;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        serve::RouteRequest req;
        switch ((c + i) % 5) {
          case 0:  // ok (or rejected under saturation)
            req.session_key = session->key;
            break;
          case 1:  // not_found
            req.session_key = "feedfacefeedface";
            break;
          case 2:  // expired at dequeue
            req.session_key = session->key;
            req.deadline = std::chrono::steady_clock::now() -
                           std::chrono::milliseconds(1);
            break;
          case 3:  // cancelled (disconnect): token pre-flipped
            req.session_key = session->key;
            req.cancel = std::make_shared<std::atomic<bool>>(true);
            break;
          case 4:  // errored at admission: unknown net
            req.session_key = session->key;
            req.net_names = {"no_such_net"};
            break;
        }
        (void)service.route(std::move(req));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const serve::MetricsSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.requests_submitted, kThreads * kPerThread);
  EXPECT_EQ(snap.requests_submitted,
            snap.requests_ok + snap.requests_rejected + snap.requests_expired +
                snap.requests_cancelled + snap.requests_not_found +
                snap.requests_errored)
      << "ok=" << snap.requests_ok << " rej=" << snap.requests_rejected
      << " exp=" << snap.requests_expired << " can=" << snap.requests_cancelled
      << " nf=" << snap.requests_not_found << " err=" << snap.requests_errored;
  // Each exercised bucket actually fired.
  EXPECT_GE(snap.requests_not_found, 1u);
  EXPECT_GE(snap.requests_expired, 1u);
  EXPECT_GE(snap.requests_cancelled, 1u);
  EXPECT_GE(snap.requests_errored, 1u);
  EXPECT_GE(snap.requests_ok, 1u);
}

/// A pipelining Responder: dispatch() hands commands to the workers and
/// returns at once, so a burst queues up behind one worker.  Final frames
/// are collected in completion order; take() waits for the next few.
class CollectingResponder final : public serve::Responder {
 public:
  explicit CollectingResponder(bool hung_up = false)
      : owner_(std::make_shared<std::atomic<bool>>(hung_up)) {}

  [[nodiscard]] const std::shared_ptr<std::atomic<bool>>& owner()
      const override {
    return owner_;
  }
  void answer(std::string frame) override { push(std::move(frame)); }
  serve::ReplySink hand_off(bool /*barrier*/) override {
    return [this](std::string text, bool final) {
      if (final) push(std::move(text));
    };
  }
  void close_after() override {}

  std::vector<std::string> take(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return frames_.size() >= n; });
    std::vector<std::string> out(frames_.begin(),
                                 frames_.begin() + static_cast<long>(n));
    frames_.erase(frames_.begin(), frames_.begin() + static_cast<long>(n));
    return out;
  }

 private:
  void push(std::string frame) {
    const std::lock_guard<std::mutex> lock(mu_);
    frames_.push_back(std::move(frame));
    cv_.notify_all();
  }

  const std::shared_ptr<std::atomic<bool>> owner_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> frames_;
};

void send(serve::RoutingService& service, serve::Responder& responder,
          const std::string& line, std::string body = {}) {
  serve::FrameParser::Event ev;
  ev.line = line;
  ev.body = std::move(body);
  serve::dispatch(service, ev, responder);
}

/// The value of one `key value` STATS line.
std::uint64_t stat(const std::string& stats, const std::string& key) {
  const std::size_t pos = stats.find("\n" + key + " ");
  EXPECT_NE(pos, std::string::npos) << key;
  if (pos == std::string::npos) return 0;
  return std::stoull(stats.substr(pos + key.size() + 2));
}

std::string stats_body(serve::RoutingService& service) {
  return "\n" + service.stats_text();
}

TEST(RoutingService, PerKindAccountingStaysSplit) {
  // Each job kind keeps its own accounting: LOAD and GEN count in their
  // verb shards but stay out of the global latency / queue-wait
  // histograms (one cold environment build must not skew the routing
  // percentiles); route-family and pin ops feed both.  TRACE labels each
  // record with its verb and status: RouteStatus names for route and pin
  // ops, ok/error for LOAD/GEN.
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  CollectingResponder conn;
  const std::string text = workload_text(9, 12, 7);
  const std::string key = serve::SessionCache::content_key(text);

  send(service, conn, "LOAD " + std::to_string(text.size()), text);
  EXPECT_EQ(conn.take(1)[0].rfind("OK 0 session=" + key, 0), 0u);
  send(service, conn, "LOAD 9", "garbage\n\n");
  EXPECT_EQ(conn.take(1)[0].rfind("ERR ", 0), 0u);
  send(service, conn, "GEN standard seed=3 cells=6 nets=5");
  const std::string gen = conn.take(1)[0];
  ASSERT_EQ(gen.rfind("OK 0 session=", 0), 0u) << gen;
  const std::string gen_key = gen.substr(13, gen.find(' ', 13) - 13);

  std::string stats = stats_body(service);
  EXPECT_EQ(stat(stats, "verb_load_count"), 2u);
  EXPECT_EQ(stat(stats, "verb_gen_count"), 1u);
  EXPECT_EQ(stat(stats, "latency_p50_us"), 0u);
  EXPECT_EQ(stat(stats, "queue_wait_p50_us"), 0u);

  // One worker, a pipelined burst: most of these wait behind a route.
  constexpr std::size_t kRoutes = 5;
  for (std::size_t i = 0; i < kRoutes; ++i) send(service, conn, "ROUTE " + key);
  send(service, conn, "OPTIMIZE " + key + " passes=1");
  send(service, conn, "DETAIL " + key);
  send(service, conn, "PIN " + key);
  std::string pin_frame;
  for (const std::string& f : conn.take(kRoutes + 3)) {
    ASSERT_EQ(f.rfind("OK ", 0), 0u) << f;
    if (f.find(" pin=") != std::string::npos) pin_frame = f;
  }
  ASSERT_FALSE(pin_frame.empty());
  const std::size_t at = pin_frame.find(" pin=") + 5;
  const std::string handle = pin_frame.substr(at, pin_frame.find(' ', at) - at);
  const layout::Layout lay = io::read_layout_string(text);
  send(service, conn, "COMMIT " + handle + " nets=" + lay.nets()[0].name());
  EXPECT_EQ(conn.take(1)[0].rfind("OK ", 0), 0u);
  send(service, conn, "COMMIT " + handle + " nets=no_such_net");
  EXPECT_EQ(conn.take(1)[0].rfind("ERR ", 0), 0u);
  // A hung-up connection's ROUTE is dropped at dequeue: status=cancelled.
  CollectingResponder gone(/*hung_up=*/true);
  send(service, gone, "ROUTE " + key);
  EXPECT_EQ(gone.take(1)[0].rfind("ERR cancelled", 0), 0u);

  stats = stats_body(service);
  EXPECT_EQ(stat(stats, "verb_load_count"), 2u);
  EXPECT_EQ(stat(stats, "verb_gen_count"), 1u);
  EXPECT_EQ(stat(stats, "verb_route_count"), kRoutes + 1);
  EXPECT_EQ(stat(stats, "verb_reroute_count"), 0u);
  EXPECT_EQ(stat(stats, "verb_optimize_count"), 1u);
  EXPECT_EQ(stat(stats, "verb_detail_count"), 1u);
  EXPECT_EQ(stat(stats, "verb_congest_count"), 0u);
  EXPECT_EQ(stat(stats, "verb_pin_count"), 3u);
  EXPECT_NE(stat(stats, "latency_p50_us"), 0u);
  EXPECT_NE(stat(stats, "queue_wait_p50_us"), 0u);

  send(service, conn, "TRACE n=64");
  const std::string trace = conn.take(1)[0];
  ASSERT_EQ(trace.rfind("OK ", 0), 0u) << trace;
  EXPECT_EQ(meta_u64(trace.substr(0, trace.find('\n')), "count"),
            2u + 1u + kRoutes + 1u + 1u + 1u + 3u);
  const auto has = [&](const std::string& verb, const std::string& session,
                       const std::string& status) {
    const std::string needle = " verb=" + verb + " session=" + session +
                               " status=" + status + " ";
    return trace.find(needle) != std::string::npos;
  };
  EXPECT_TRUE(has("load", key, "ok")) << trace;
  EXPECT_TRUE(has("load", "", "error")) << trace;  // no session to name
  EXPECT_TRUE(has("gen", gen_key, "ok")) << trace;
  EXPECT_TRUE(has("route", key, "ok")) << trace;
  EXPECT_TRUE(has("route", key, "cancelled")) << trace;
  EXPECT_TRUE(has("optimize", key, "ok")) << trace;
  EXPECT_TRUE(has("detail", key, "ok")) << trace;
  EXPECT_TRUE(has("pin", key, "ok")) << trace;
  EXPECT_TRUE(has("pin", handle, "ok")) << trace;
  EXPECT_TRUE(has("pin", handle, "error")) << trace;
  service.release_pins(conn.owner());
}

}  // namespace
