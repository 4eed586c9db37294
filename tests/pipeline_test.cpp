// Tests for the pipeline-orchestration subsystem: stage-option and
// committed-route fingerprints, the content-addressed stage cache, the
// stage runner's determinism and cancellation, the serving integration
// (lazy default-route commit, repeated-stage cache hits counted through
// the build-count seam, REROUTE/OPTIMIZE invalidation by re-keying), and
// the DETAIL / CONGEST / VERIFY / SVG / GEN verbs end to end over pipes
// and TCP — including the pipelined GEN -> ROUTE -> DETAIL -> VERIFY ->
// STATS sequence over real TCP and byte-identical pipe-vs-TCP parity.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/netlist_router.hpp"
#include "core/optimize.hpp"
#include "core/search_environment.hpp"
#include "io/route_dump.hpp"
#include "io/text_format.hpp"
#include "pipeline/route_state.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/stage_cache.hpp"
#include "pipeline/stage_runner.hpp"
#include "protocol_harness.hpp"
#include "serve/layout_session.hpp"
#include "serve/protocol.hpp"
#include "serve/routing_service.hpp"
#include "workload/netgen.hpp"

#if defined(__linux__)
#include <sys/socket.h>

#include "net/socket.hpp"
#include "serve/client.hpp"
#endif

namespace {

using namespace gcr;
using test::Frame;
using test::next_frame;
using test::strip_timing;
using test::workload_text;

/// In-process reference for a stage verb: default options, default full
/// sequential route — exactly what the service runs on a fresh session.
std::shared_ptr<const pipeline::StageResult> reference_stage(
    const layout::Layout& lay, const route::NetlistResult& routes,
    pipeline::StageKind kind) {
  route::SearchEnvironment env(lay);
  pipeline::StageOptions opts;
  opts.kind = kind;
  const pipeline::StageOutcome out =
      pipeline::run_stage({lay, env, routes, nullptr, {}}, opts);
  return out.result;
}

// ------------------------------------------------------------ fingerprints

TEST(StageOptions, FingerprintCoversOnlyRelevantKnobs) {
  pipeline::StageOptions a;  // kDetail
  pipeline::StageOptions b = a;
  b.penalty_dbu = 999;  // congestion knob: irrelevant to DETAIL
  b.scale = 8.0;        // svg knob: irrelevant to DETAIL
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.channel_window = 16;
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  pipeline::StageOptions c;
  c.kind = pipeline::StageKind::kCongest;
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  pipeline::StageOptions d = c;
  d.track_pitch = 5;  // detail knob: irrelevant to CONGEST
  EXPECT_EQ(c.fingerprint(), d.fingerprint());
  d.max_iterations = 7;
  EXPECT_NE(c.fingerprint(), d.fingerprint());
}

TEST(RouteState, FingerprintTracksGeometry) {
  const layout::Layout lay = io::read_layout_string(workload_text(9, 12, 7));
  const route::NetlistResult res = route::NetlistRouter(lay).route_all();
  const std::string fp = pipeline::fingerprint_routes(res);
  ASSERT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(fp, pipeline::fingerprint_routes(res));  // pure function

  route::NetlistResult tweaked = res;
  ASSERT_FALSE(tweaked.routes.empty());
  tweaked.routes[0].wirelength += 1;
  EXPECT_NE(fp, pipeline::fingerprint_routes(tweaked));
}

TEST(RouteState, SlotPublishesImmutableSnapshots) {
  const layout::Layout lay = io::read_layout_string(workload_text(9, 12, 7));
  const route::NetlistResult res = route::NetlistRouter(lay).route_all();
  pipeline::RouteStateSlot slot;
  EXPECT_EQ(slot.get(), nullptr);
  const auto snap = slot.set(res);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->fingerprint, pipeline::fingerprint_routes(res));
  EXPECT_EQ(slot.get(), snap);
  // Re-committing identical geometry keeps the fingerprint, so stage-cache
  // hits survive a repeated full ROUTE.
  EXPECT_EQ(slot.set(res)->fingerprint, snap->fingerprint);
}

// ------------------------------------------------------------- stage cache

TEST(StageCache, KeyComposition) {
  EXPECT_EQ(pipeline::StageCache::key_for("s", "r", "o"), "s|r|o");
}

TEST(StageCache, LruEvictionAndCounters) {
  pipeline::StageCache cache(2);
  const auto mk = [](const std::string& body) {
    auto r = std::make_shared<pipeline::StageResult>();
    r->body = body;
    return r;
  };
  EXPECT_EQ(cache.find("a"), nullptr);  // miss 1
  cache.insert("a", mk("A"));
  cache.insert("b", mk("B"));
  ASSERT_NE(cache.find("a"), nullptr);  // hit 1, refreshes a's recency
  cache.insert("c", mk("C"));           // evicts b (least recent)
  EXPECT_EQ(cache.find("b"), nullptr);  // miss 2
  ASSERT_NE(cache.find("a"), nullptr);  // hit 2
  ASSERT_NE(cache.find("c"), nullptr);  // hit 3
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

// ------------------------------------------------------------ stage runner

TEST(StageRunner, DeterministicAcrossRuns) {
  const layout::Layout lay = io::read_layout_string(workload_text(9, 12, 7));
  route::SearchEnvironment env(lay);
  const route::NetlistResult routes = route::NetlistRouter(lay).route_all();
  for (const pipeline::StageKind kind :
       {pipeline::StageKind::kDetail, pipeline::StageKind::kCongest,
        pipeline::StageKind::kVerify, pipeline::StageKind::kSvg}) {
    pipeline::StageOptions opts;
    opts.kind = kind;
    const std::size_t before = pipeline::stage_build_count();
    const pipeline::StageOutcome one =
        pipeline::run_stage({lay, env, routes, nullptr, {}}, opts);
    const pipeline::StageOutcome two =
        pipeline::run_stage({lay, env, routes, nullptr, {}}, opts);
    ASSERT_NE(one.result, nullptr);
    ASSERT_NE(two.result, nullptr);
    EXPECT_EQ(one.result->meta, two.result->meta);
    EXPECT_EQ(one.result->body, two.result->body);
    EXPECT_EQ(one.result->kind, kind);
    if (kind != pipeline::StageKind::kVerify) {
      // A clean verify has no violation lines; every other stage renders.
      EXPECT_FALSE(one.result->body.empty());
    }
    EXPECT_EQ(pipeline::stage_build_count(), before + 2);
  }
}

TEST(StageRunner, CancelAndDeadlineStopWithoutCounting) {
  const layout::Layout lay = io::read_layout_string(workload_text(9, 12, 7));
  route::SearchEnvironment env(lay);
  const route::NetlistResult routes = route::NetlistRouter(lay).route_all();
  pipeline::StageOptions opts;  // kDetail

  const auto cancel = std::make_shared<std::atomic<bool>>(true);
  const std::size_t before = pipeline::stage_build_count();
  const pipeline::StageOutcome cancelled =
      pipeline::run_stage({lay, env, routes, cancel, {}}, opts);
  EXPECT_EQ(cancelled.result, nullptr);
  EXPECT_TRUE(cancelled.cancelled);

  const auto past =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const pipeline::StageOutcome expired =
      pipeline::run_stage({lay, env, routes, nullptr, past}, opts);
  EXPECT_EQ(expired.result, nullptr);
  EXPECT_TRUE(expired.cancelled);
  EXPECT_EQ(pipeline::stage_build_count(), before);
}

// ----------------------------------------------------- service integration

serve::RouteRequest stage_request(const std::string& key,
                                  pipeline::StageOptions opts = {}) {
  serve::RouteRequest req;
  req.session_key = key;
  req.payload = opts;
  return req;
}

TEST(ServiceStages, FreshSessionCommitsDefaultRouteThenHitsCache) {
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const std::string text = workload_text(9, 12, 7);
  const auto session = service.load(text);
  EXPECT_EQ(session->routes.get(), nullptr);

  const std::size_t before = pipeline::stage_build_count();
  const serve::RouteResponse first =
      service.route(stage_request(session->key));
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_NE(first.stage, nullptr);
  EXPECT_FALSE(first.stage_cached);
  EXPECT_EQ(pipeline::stage_build_count(), before + 1);

  // The lazy commit is the deterministic default full sequential route.
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult ref = route::NetlistRouter(lay).route_all();
  const auto state = session->routes.get();
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->fingerprint, pipeline::fingerprint_routes(ref));

  // Repeated DETAIL: served from the cache, zero stage rebuilds.
  const serve::RouteResponse second =
      service.route(stage_request(session->key));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.stage_cached);
  EXPECT_EQ(second.stage->body, first.stage->body);
  EXPECT_EQ(second.stage->meta, first.stage->meta);
  EXPECT_EQ(pipeline::stage_build_count(), before + 1);
  EXPECT_EQ(service.stages().hits(), 1u);

  // A full ROUTE re-committing identical geometry must keep hitting.
  serve::RouteRequest route;
  route.session_key = session->key;
  ASSERT_TRUE(service.route(std::move(route)).ok());
  const serve::RouteResponse third =
      service.route(stage_request(session->key));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.stage_cached);
  EXPECT_EQ(pipeline::stage_build_count(), before + 1);

  // Different stage options are a different cache key.
  pipeline::StageOptions wide;
  wide.channel_window = 16;
  const serve::RouteResponse fourth =
      service.route(stage_request(session->key, wide));
  ASSERT_TRUE(fourth.ok());
  EXPECT_FALSE(fourth.stage_cached);
  EXPECT_EQ(pipeline::stage_build_count(), before + 2);
}

TEST(ServiceStages, RerouteInvalidatesCachedStages) {
  // Precondition: ripping up nets 0,1 and re-routing them last must change
  // the committed geometry, otherwise the content key would (correctly)
  // still hit.  The workload is chosen so it does.
  const std::string text = workload_text(12, 24, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult full = route::NetlistRouter(lay).route_all();
  route::NetlistOptions ropts;
  ropts.mode = route::NetlistMode::kSequential;
  ropts.reroute = {0, 1};
  const route::NetlistResult ripped =
      route::NetlistRouter(lay).route_all(ropts);
  ASSERT_NE(pipeline::fingerprint_routes(full),
            pipeline::fingerprint_routes(ripped))
      << "workload does not differentiate the reroute; pick another seed";

  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);

  const serve::RouteResponse first =
      service.route(stage_request(session->key));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.stage_cached);

  serve::RouteRequest rr;
  rr.session_key = session->key;
  serve::RouteRequest::Reroute reroute;
  reroute.opts.mode = route::NetlistMode::kSequential;
  rr.payload = reroute;
  rr.net_names = {lay.nets()[0].name(), lay.nets()[1].name()};
  const serve::RouteResponse rresp = service.route(std::move(rr));
  ASSERT_TRUE(rresp.ok()) << rresp.error;
  ASSERT_NE(session->routes.get(), nullptr);
  EXPECT_EQ(session->routes.get()->fingerprint,
            pipeline::fingerprint_routes(ripped));

  // Same DETAIL options, new committed geometry: recompute, not a hit.
  const std::size_t before = pipeline::stage_build_count();
  const serve::RouteResponse second =
      service.route(stage_request(session->key));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.stage_cached);
  EXPECT_EQ(pipeline::stage_build_count(), before + 1);
}

TEST(ServiceStages, OptimizeRecommitsAndRekeys) {
  const std::string text = workload_text(12, 24, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult full = route::NetlistRouter(lay).route_all();

  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);

  const serve::RouteResponse first =
      service.route(stage_request(session->key));
  ASSERT_TRUE(first.ok());

  serve::RouteRequest orq;
  orq.session_key = session->key;
  orq.payload = route::OptimizeOptions{};
  const serve::RouteResponse oresp = service.route(std::move(orq));
  ASSERT_TRUE(oresp.ok());
  const auto state = session->routes.get();
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->fingerprint, pipeline::fingerprint_routes(oresp.result));

  // Re-keying is exact: the repeated stage hits iff OPTIMIZE reproduced
  // the original geometry bit-for-bit.
  const bool unchanged =
      state->fingerprint == pipeline::fingerprint_routes(full);
  const serve::RouteResponse second =
      service.route(stage_request(session->key));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.stage_cached, unchanged);
}

TEST(ServiceStages, StatsCountStagesAndGens) {
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(workload_text(9, 12, 7));
  ASSERT_TRUE(service.route(stage_request(session->key)).ok());
  ASSERT_TRUE(service.route(stage_request(session->key)).ok());
  // GEN accounts for itself on the worker, before its callback fires.
  auto gen = std::make_shared<std::promise<serve::LoadResponse>>();
  std::future<serve::LoadResponse> loaded = gen->get_future();
  service.submit_gen([] { return workload_text(9, 12, 8); }, nullptr,
                     [gen](serve::LoadResponse resp) {
                       gen->set_value(std::move(resp));
                     });
  ASSERT_TRUE(loaded.get().ok);
  const serve::MetricsSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.stages_ok, 2u);
  EXPECT_EQ(snap.stages_failed, 0u);
  EXPECT_EQ(snap.gens_ok, 1u);
  EXPECT_EQ(snap.stage_cache_hits, 1u);
  EXPECT_EQ(snap.stage_cache_misses, 1u);
  EXPECT_EQ(snap.stage_cache_size, 1u);
  const std::string text = service.stats_text();
  EXPECT_NE(text.find("stages_ok 2"), std::string::npos);
  EXPECT_NE(text.find("gens_ok 1"), std::string::npos);
  EXPECT_NE(text.find("stage_cache_hits 1"), std::string::npos);
}

// ------------------------------------------------------ pipes, one at a time

serve::RoutingService::Options two_workers() {
  serve::RoutingService::Options opts;
  opts.workers = 2;
  return opts;
}

/// Runs a scripted connection and returns everything the service wrote.
std::string run_protocol(const std::string& script) {
  serve::RoutingService service(two_workers());
  return test::run_script(service, script);
}

const char kGenLine[] = "GEN standard seed=5 cells=9 extent=512 nets=12\n";

TEST(Protocol, PipelineVerbsRoundTrip) {
  // The GEN equivalent of this workload, generated client-side: the session
  // key is predictable before the command is sent.
  const std::string text = workload_text(9, 12, 5);
  const std::string key = serve::SessionCache::content_key(text);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult ref = route::NetlistRouter(lay).route_all();

  const std::string script = std::string(kGenLine) + "ROUTE " + key +
                             "\nDETAIL " + key + "\nCONGEST " + key +
                             "\nVERIFY " + key + "\nSVG " + key +
                             "\nDETAIL " + key + "\nSTATS\nQUIT\n";
  std::istringstream replies(run_protocol(script));

  const Frame gen = next_frame(replies);
  EXPECT_NE(gen.status.find("session=" + key), std::string::npos)
      << gen.status;
  EXPECT_NE(gen.status.find(" gen=standard"), std::string::npos);
  EXPECT_NE(gen.status.find("cached=0"), std::string::npos);

  const Frame route = next_frame(replies);
  ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
  EXPECT_EQ(io::read_routes_string(route.body, lay).total_wirelength,
            ref.total_wirelength);

  for (const pipeline::StageKind kind :
       {pipeline::StageKind::kDetail, pipeline::StageKind::kCongest,
        pipeline::StageKind::kVerify, pipeline::StageKind::kSvg}) {
    const auto want = reference_stage(lay, ref, kind);
    ASSERT_NE(want, nullptr);
    const Frame frame = next_frame(replies);
    const std::string name{pipeline::to_string(kind)};
    ASSERT_EQ(frame.status.rfind("OK ", 0), 0u) << frame.status;
    EXPECT_NE(frame.status.find("stage=" + name + " cached=0"),
              std::string::npos)
        << frame.status;
    if (!want->meta.empty()) {
      EXPECT_NE(frame.status.find(want->meta), std::string::npos)
          << name << ": " << frame.status;
    }
    EXPECT_EQ(frame.body, want->body) << name;
  }

  const Frame cached = next_frame(replies);
  EXPECT_NE(cached.status.find("stage=detail cached=1"), std::string::npos)
      << cached.status;

  const Frame stats = next_frame(replies);
  EXPECT_NE(stats.body.find("stages_ok 5"), std::string::npos) << stats.body;
  EXPECT_NE(stats.body.find("gens_ok 1"), std::string::npos);
  EXPECT_NE(stats.body.find("stage_cache_hits 1"), std::string::npos);
  const Frame bye = next_frame(replies);
  EXPECT_EQ(bye.status, "OK 0 bye");
}

TEST(Protocol, GenDedupsBySeed) {
  const std::string text = workload_text(9, 12, 5);
  const std::string key = serve::SessionCache::content_key(text);
  const std::string script =
      std::string(kGenLine) + kGenLine +
      "GEN standard seed=6 cells=9 extent=512 nets=12\nQUIT\n";
  std::istringstream replies(run_protocol(script));
  const Frame first = next_frame(replies);
  EXPECT_NE(first.status.find("session=" + key), std::string::npos);
  EXPECT_NE(first.status.find("cached=0"), std::string::npos);
  const Frame second = next_frame(replies);
  EXPECT_NE(second.status.find("session=" + key), std::string::npos);
  EXPECT_NE(second.status.find("cached=1"), std::string::npos)
      << "identical GEN must dedup into the cached session: "
      << second.status;
  const Frame third = next_frame(replies);
  EXPECT_EQ(third.status.find("session=" + key), std::string::npos)
      << "a different seed must synthesize a different session";
  EXPECT_NE(third.status.find("cached=0"), std::string::npos);
}

TEST(Protocol, StageAndGenParseRejections) {
  const std::string script =
      "DETAIL deadbeef\n"                    // unknown session
      "GEN standard cells=9\n"               // missing mandatory seed
      "GEN bogus seed=1\n"                   // unknown kind
      "GEN standard seed=1 cells=0\n"        // below the size floor
      "GEN standard seed=1 nets=999999\n"    // above the size cap
      "DETAIL deadbeef window=0\n"           // zero channel window
      "CONGEST deadbeef iterations=999\n"    // above the iteration cap
      "SVG deadbeef scale=1000\n"            // above the scale cap
      "SVG deadbeef scale=1.2.3\n"           // trailing junk after number
      "SVG deadbeef scale=.\n"               // bare dot, no digits
      "VERIFY deadbeef bogus=1\n"            // unknown stage option
      "QUIT\n";
  std::istringstream replies(run_protocol(script));
  const char* expects[] = {
      "session_not_found", "seed",       "kind",
      "cells",             "nets",       "window",
      "iterations",        "scale",      "expected a number",
      "expected a number", "bogus",
  };
  for (const char* expect : expects) {
    const Frame f = next_frame(replies);
    EXPECT_EQ(f.status.rfind("ERR ", 0), 0u) << f.status;
    EXPECT_NE(f.status.find(expect), std::string::npos)
        << "want '" << expect << "' in: " << f.status;
  }
  const Frame bye = next_frame(replies);
  EXPECT_EQ(bye.status, "OK 0 bye");
}

// ------------------------------------------------------- TCP, pipelined

#if defined(__linux__)

using test::send_all;
using test::TestServer;

TEST(EventLoopPipeline, PipelinedGenRouteDetailVerifyStats) {
  // The acceptance sequence, all five frames in ONE TCP segment: the GEN
  // must act as an ordering barrier (the ROUTE and stages are parked until
  // the synthesized session exists), and every response must arrive
  // complete, correct, and in request order.
  TestServer server({}, two_workers());
  const std::string text = workload_text(9, 12, 5);
  const std::string key = serve::SessionCache::content_key(text);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult ref = route::NetlistRouter(lay).route_all();

  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());
  send_all(sock.get(), std::string(kGenLine) + "ROUTE " + key + "\nDETAIL " +
                           key + "\nVERIFY " + key + "\nSTATS\nQUIT\n");

  const Frame gen = next_frame(transport.in());
  ASSERT_EQ(gen.status.rfind("OK 0 session=" + key, 0), 0u) << gen.status;
  EXPECT_NE(gen.status.find(" gen=standard"), std::string::npos);

  const Frame route = next_frame(transport.in());
  ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
  EXPECT_EQ(io::read_routes_string(route.body, lay).total_wirelength,
            ref.total_wirelength);

  const Frame detail = next_frame(transport.in());
  ASSERT_EQ(detail.status.rfind("OK ", 0), 0u) << detail.status;
  const auto want_detail =
      reference_stage(lay, ref, pipeline::StageKind::kDetail);
  ASSERT_NE(want_detail, nullptr);
  EXPECT_NE(detail.status.find("stage=detail cached=0"), std::string::npos)
      << detail.status;
  EXPECT_EQ(detail.body, want_detail->body);

  const Frame verify = next_frame(transport.in());
  ASSERT_EQ(verify.status.rfind("OK ", 0), 0u) << verify.status;
  const auto want_verify =
      reference_stage(lay, ref, pipeline::StageKind::kVerify);
  ASSERT_NE(want_verify, nullptr);
  EXPECT_NE(verify.status.find(want_verify->meta), std::string::npos)
      << verify.status;
  EXPECT_EQ(verify.body, want_verify->body);

  // STATS *executes* at dispatch — possibly while a pipelined stage is
  // still on a worker — so only the GEN (whose barrier ordered it) is
  // guaranteed visible in the body; the settled counters are checked on a
  // post-drain snapshot below.
  const Frame stats = next_frame(transport.in());
  ASSERT_EQ(stats.status.rfind("OK ", 0), 0u) << stats.status;
  EXPECT_NE(stats.body.find("gens_ok 1"), std::string::npos) << stats.body;
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
  char c = 0;
  EXPECT_EQ(::recv(sock.get(), &c, 1, 0), 0);  // clean close, stream intact

  const serve::MetricsSnapshot snap = server.service().snapshot();
  EXPECT_EQ(snap.gens_ok, 1u);
  EXPECT_EQ(snap.stages_ok, 2u);
  EXPECT_EQ(snap.stage_cache_misses, 2u);
}

/// Masks the reply bytes that legitimately differ between runs and
/// transports: per-request timing fields, HELLO's uptime, and TRACE's body
/// (which requests were slowest is timing too).
std::string normalized(std::string status, std::string body) {
  status = strip_timing(status);
  if (const std::size_t up = status.find(" uptime_s=");
      up != std::string::npos) {
    status.erase(up);
  }
  if (status.find(" threshold_ms=") != std::string::npos) {
    status = "OK _" + status.substr(status.find(' ', 3));
    body.clear();
  }
  return status + '\n' + body;
}

/// Reads one reply — any OPTIMIZE PASS lines plus the frame they precede
/// — into \p reply, normalized.  False at end of stream.
bool read_reply(std::istream& in, std::string& reply) {
  const serve::Reply r = serve::read_reply(in);
  if (r.broken && r.status.empty()) return false;
  EXPECT_FALSE(r.broken) << r.error;
  reply.clear();
  for (const route::OptimizePassStats& p : r.passes) {
    reply += "PASS " + std::to_string(p.pass) + ' ' +
             std::to_string(p.wirelength) + ' ' + std::to_string(p.overflow) +
             '\n';
  }
  reply += normalized(r.status, r.body);
  return true;
}

/// The LOAD/GEN accounting lines of the service's STATS body.
std::string load_counters(const serve::RoutingService& service) {
  std::istringstream stats(service.stats_text());
  std::string out;
  std::string line;
  while (std::getline(stats, line)) {
    for (const char* key : {"loads_offloaded ", "loads_ok ",
                            "verb_load_count ", "verb_gen_count ",
                            "gens_ok "}) {
      if (line.rfind(key, 0) == 0) out += line + '\n';
    }
  }
  return out;
}

/// A parity script: rounds of commands sent back to back, each round
/// answered by `replies` frames before the next is sent — the TCP client
/// pipelines within a round only, so a PIN's handle exists before COMMIT
/// names it.  The last round's reply count is whatever arrives until EOF.
struct Round {
  std::string bytes;
  std::size_t replies = 0;
};

/// What one transport answered: every reply, and the final accounting.
struct FrontEndRun {
  std::vector<std::string> replies;
  std::string counters;
};

/// The whole script through adopted pipes: one command at a time.
FrontEndRun run_pipes(const std::vector<Round>& script) {
  serve::RoutingService service(two_workers());
  std::string bytes;
  for (const Round& round : script) bytes += round.bytes;
  FrontEndRun run;
  std::istringstream replies(test::run_script(service, bytes));
  for (std::string reply; read_reply(replies, reply);) {
    run.replies.push_back(reply);
  }
  run.counters = load_counters(service);
  return run;
}

/// The script over TCP, pipelined within each round.
FrontEndRun run_tcp(const std::vector<Round>& script) {
  TestServer server({}, two_workers());
  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());
  FrontEndRun run;
  std::string reply;
  for (std::size_t r = 0; r < script.size(); ++r) {
    send_all(sock.get(), script[r].bytes);
    if (r + 1 < script.size()) {
      for (std::size_t i = 0; i < script[r].replies; ++i) {
        EXPECT_TRUE(read_reply(transport.in(), reply));
        run.replies.push_back(reply);
      }
    }
  }
  // Half-close: the server sees EOF and serves a trailing LF-less line,
  // then closes once every reply is flushed — so every completion has
  // fired before the counters are read.
  ::shutdown(sock.get(), SHUT_WR);
  while (read_reply(transport.in(), reply)) run.replies.push_back(reply);
  run.counters = load_counters(server.service());
  return run;
}

/// Every verb, both LOAD outcomes, and every framing error, ending in a
/// trailing LF-less line at EOF.  Within a round, only commands whose
/// answers cannot depend on pipelined neighbours share a session: ROUTE,
/// REROUTE, and OPTIMIZE compute from scratch, and DETAIL — which reads
/// committed routes — runs on the GEN session nothing else touches.
std::vector<Round> every_verb_script() {
  const std::string text = workload_text(9, 12, 5);
  const std::string key = serve::SessionCache::content_key(text);
  const std::string gen_key = serve::SessionCache::content_key(
      workload_text(9, 12, 6));
  const layout::Layout lay = io::read_layout_string(text);
  const std::string a = lay.nets()[0].name();
  const std::string b = lay.nets()[1].name();
  const std::string pin = "pin-0000000000000001";  // a fresh service's first
  const std::string load = serve::load_frame(text);
  return {
      {"HELLO\n" + load + load +  // cold, then resident
           "GEN standard seed=6 cells=9 extent=512 nets=12\nROUTE " + key +
           "\nREROUTE " + key + " nets=" + a + "\nOPTIMIZE " + key +
           " passes=2\nDETAIL " + gen_key + "\n",
       8},
      {"PIN " + key + "\n", 1},
      {"COMMIT " + pin + " nets=" + a + "," + b + "\nREROUTE " + pin +
           " nets=" + a + "\nUNCOMMIT " + pin + " nets=" + b + "\nUNPIN " +
           pin + "\nTRACE n=1\nFROB " + key + "\nROUTE " + key +
           " threads=abc\n" + std::string(serve::kMaxCommandLine + 1, 'z') +
           "\nLOAD " + std::to_string(serve::kMaxLoadBytes + 1) + "\n" +
           std::string(serve::kMaxLoadBytes + 1, 'x') + "ROUTE " + key +
           " nets=" + b,
       10},
  };
}

TEST(EventLoopPipeline, PipesAndTcpAnswerPipelineVerbsIdentically) {
  // The same script through one event loop twice — adopted pipes, where
  // commands run one at a time, and TCP, where they pipeline — must
  // produce byte-identical frames once the nondeterministic bytes are
  // masked, and leave the same LOAD/GEN accounting behind.
  const std::string text = workload_text(9, 12, 5);
  const std::string key = serve::SessionCache::content_key(text);
  const std::vector<Round> pipelined = {
      {std::string(kGenLine) + "ROUTE " + key + "\nDETAIL " + key +
           "\nCONGEST " + key + "\nVERIFY " + key + "\nSVG " + key +
           "\nQUIT\n",
       7}};
  const std::pair<const char*, std::vector<Round>> scripts[] = {
      {"pipeline verbs", pipelined},
      {"every verb", every_verb_script()},
  };

  for (const auto& [name, script] : scripts) {
    SCOPED_TRACE(name);
    std::size_t want = 0;
    for (const Round& round : script) want += round.replies;
    const FrontEndRun pipes = run_pipes(script);
    const FrontEndRun tcp = run_tcp(script);
    ASSERT_EQ(pipes.replies.size(), want);
    ASSERT_EQ(tcp.replies.size(), want);
    for (std::size_t i = 0; i < want; ++i) {
      EXPECT_EQ(pipes.replies[i], tcp.replies[i]) << "reply " << i;
    }
    EXPECT_EQ(pipes.counters, tcp.counters);
  }
}

TEST(EventLoopPipeline, StageVerbRejectionsOverTcp) {
  TestServer server({}, two_workers());
  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());
  send_all(sock.get(), "DETAIL deadbeef\nGEN standard cells=9\nSVG "
                       "deadbeef scale=1000\nQUIT\n");
  const Frame missing = next_frame(transport.in());
  EXPECT_EQ(missing.status.rfind("ERR ", 0), 0u) << missing.status;
  EXPECT_NE(missing.status.find("session_not_found"), std::string::npos);
  const Frame seedless = next_frame(transport.in());
  EXPECT_EQ(seedless.status.rfind("ERR ", 0), 0u) << seedless.status;
  EXPECT_NE(seedless.status.find("seed"), std::string::npos);
  const Frame scale = next_frame(transport.in());
  EXPECT_EQ(scale.status.rfind("ERR ", 0), 0u) << scale.status;
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
}

#else  // !__linux__

TEST(EventLoopPipeline, RequiresLinux) {
  GTEST_SKIP() << "epoll front-end tests require Linux";
}

#endif  // __linux__

}  // namespace
