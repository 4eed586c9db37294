// gcr_loadgen — load generator and end-to-end checker for gcr_serve.
//
// It forks the server named by --server and drives the framed protocol
// over a real transport; every reply is cross-checked against an
// in-process reference.  Every connection runs the same session script:
// LOAD (or GEN), N checked ROUTEs, DETAIL + VERIFY (--gen), one REROUTE
// of the first two nets, and OPTIMIZE (--optimize).
//
//   default: one connection over a socketpair — or the daemon's
//   stdin/stdout pipes with --transport pipe — running clients x requests
//   ROUTEs.  With nobody else on the server, the session also sends its
//   LOAD/GEN twice and checks the second dedups (cached=0, then cached=1).
//   Ends with STATS and QUIT; the server must then exit 0.
//
//   --tcp: forks the server with --listen 0, parses the bound port from its
//   banner, and runs one session per client thread over N concurrent TCP
//   connections against the shared session.  Per-client latency
//   percentiles plus an aggregate histogram are reported; at the end the
//   server is sent SIGINT and must drain and exit cleanly.  This is the
//   end-to-end proof of the epoll front-end: many clients, one worker
//   pool, zero mismatches.
//
//   --gen: sessions synthesize their workload *server-side* with the GEN
//   verb instead of shipping a LOAD body — each TCP client from a distinct
//   seed — and cross-check the returned session key against an identical
//   client-side generation (GEN is deterministic, so the content-addressed
//   key is predictable before the request is sent).  Every session closes
//   with one DETAIL and one VERIFY round trip whose meta and body must
//   match an in-process pipeline-stage run exactly.
//
//   --restart-dir DIR: restart-under-load smoke — PIN a session, COMMIT
//   every net, SAVE into DIR, SIGINT-drain the server, restart it with
//   --restore-dir DIR, claim the same handle, and verify the rehydrated pin
//   answers the same REROUTE byte-identically.
//
//   --stats-out FILE (with --tcp): before shutting the server down, a
//   control connection fetches STATS and TRACE and FILE gets a JSON
//   report: every server STATS counter, the TRACE dump, and the client
//   side's own per-verb latency aggregates.  The server's counters are
//   cross-checked against what the clients observed (counter conservation,
//   per-verb counts), so the artifact doubles as an end-to-end audit.
//
//   $ gcr_loadgen --server ./example_gcr_serve --requests 8 --gen
//   $ gcr_loadgen --server ./example_gcr_serve --tcp --clients 16
//
// With --optimize, every session finishes with one OPTIMIZE request: the
// streamed PASS lines must match an in-process Optimizer run exactly (and
// be non-increasing), and the final dump must parse back to its result.
//
// The workload is a seeded workload::floorplan netlist, so runs are
// reproducible and the reference comparison is exact.  In-process service
// throughput against worker count is bench_serve's table, not this tool's.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/netlist_router.hpp"
#include "core/optimize.hpp"
#include "core/search_environment.hpp"
#include "io/route_dump.hpp"
#include "io/text_format.hpp"
#include "net/socket.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/stage_runner.hpp"
#include "serve/client.hpp"
#include "serve/layout_session.hpp"
#include "workload/netgen.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#define GCR_LOADGEN_HAVE_FORK 1
#else
#define GCR_LOADGEN_HAVE_FORK 0
#endif

#if defined(__linux__)
#include <fcntl.h>
#include <sys/epoll.h>
#define GCR_LOADGEN_HAVE_EPOLL 1
#else
#define GCR_LOADGEN_HAVE_EPOLL 0
#endif

namespace {

using namespace gcr;

struct Config {
  std::string server;
  bool pipe_transport = false;
  bool tcp = false;  // fork the server with --listen and fan out over TCP
  std::size_t clients = 4;
  std::size_t requests = 8;  // per client
  std::size_t workers = 0;   // 0 = hardware threads
  std::size_t cells = 16;
  std::size_t nets = 24;
  std::uint64_t seed = 42;
  long deadline_ms = -1;  // <0 = none
  bool optimize = false;  // finish every session with one OPTIMIZE
  bool gen = false;       // synthesize the workload server-side (GEN verb)
  /// Non-empty = restart-under-load smoke: pin a session on a first server,
  /// SAVE into this directory, SIGINT-drain the server, start a second one
  /// with --restore-dir, and verify the rehydrated pin answers the same
  /// REROUTE byte-identically.
  std::string restart_dir;
  /// Non-empty (TCP mode): write a JSON audit — server STATS + TRACE next
  /// to the clients' own per-verb aggregates — to this path before the
  /// server is shut down.
  std::string stats_out;
  /// TCP mode: fork the server with --reactors N (SO_REUSEPORT event-loop
  /// shards); 1 = the single-loop build the responses are differenced
  /// against.
  std::size_t reactors = 1;
  /// Open-loop mode (--tcp only): instead of closed-loop request/response
  /// clients, pace ROUTEs at fixed offered rates over many pipelined
  /// connections and measure the p99-vs-offered-load curve.
  bool open_loop = false;
  std::string offered = "200,400,800";  // req/s steps, comma-separated
  std::size_t conns = 64;               // open-loop connection count
  double step_s = 2.0;                  // seconds per offered-load step
  std::string curve_out;                // JSON curve artifact path
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --server PATH [--transport socket|pipe] [--tcp]\n"
      "       [--clients N] [--requests N] [--workers N] [--reactors N]\n"
      "       [--cells N] [--nets N] [--seed S] [--deadline-ms N]\n"
      "       [--optimize] [--gen] [--restart-dir DIR] [--stats-out FILE]\n"
      "       [--open-loop [--offered R1,R2,..] [--conns N] [--step-s S]\n"
      "        [--curve-out FILE]]\n",
      argv0);
  return 2;
}

#if GCR_LOADGEN_HAVE_FORK

layout::Layout gen_workload(const Config& cfg, std::uint64_t seed) {
  return workload::standard_workload(cfg.cells, 640, cfg.nets, seed);
}

/// The GEN command mirroring gen_workload: the server must synthesize a
/// byte-identical layout from the same seed, so the session key in its
/// reply is predictable before the request leaves.
std::string gen_command(const Config& cfg, std::uint64_t seed) {
  return "GEN standard seed=" + std::to_string(seed) +
         " cells=" + std::to_string(cfg.cells) +
         " extent=640 nets=" + std::to_string(cfg.nets);
}

// ------------------------------------------------------------ session script

/// One session's workload and every reference answer its replies are
/// checked against.
struct Reference {
  std::uint64_t seed = 0;
  layout::Layout lay;
  std::string text;
  std::string key;  // the content key LOAD/GEN must answer
  route::NetlistResult route;
  /// `REROUTE <key> nets=<first two nets>` and the dump it must answer
  /// byte-for-byte (the serve path runs the same deterministic driver);
  /// empty under --gen or with fewer than two nets.
  std::string reroute_line, reroute_body;
  std::optional<route::OptimizeReport> optimize;  // with --optimize
};

Reference make_reference(const Config& cfg, std::uint64_t seed) {
  Reference ref;
  ref.seed = seed;
  ref.lay = gen_workload(cfg, seed);
  ref.text = io::write_layout_string(ref.lay);
  ref.key = serve::SessionCache::content_key(ref.text);
  ref.route = route::NetlistRouter(ref.lay).route_all();
  if (!cfg.gen && ref.lay.nets().size() >= 2) {
    route::NetlistOptions ropts;
    ropts.mode = route::NetlistMode::kSequential;
    ropts.reroute = {0, 1};
    const route::NetlistResult rres =
        route::NetlistRouter(ref.lay).route_all(ropts);
    ref.reroute_body = io::write_routes_string(ref.lay, rres, ropts.reroute);
    ref.reroute_line = "REROUTE " + ref.key + " nets=" +
                       ref.lay.nets()[0].name() + "," +
                       ref.lay.nets()[1].name();
  }
  if (cfg.optimize) ref.optimize = route::Optimizer(ref.lay).run();
  return ref;
}

/// Cross-checks an OPTIMIZE reply against the in-process reference run:
/// one PASS line per recorded pass, values exact and non-increasing, final
/// dump parsing back to the reference result.  Empty string = good.
std::string check_optimize(const serve::Reply& r, const layout::Layout& lay,
                           const route::OptimizeReport& want) {
  if (!r.ok) return "OPTIMIZE: " + r.error;
  if (r.passes.empty()) return "OPTIMIZE: no PASS lines streamed";
  if (r.passes.size() != want.passes.size()) {
    return "OPTIMIZE: streamed " + std::to_string(r.passes.size()) +
           " passes, reference ran " + std::to_string(want.passes.size());
  }
  for (std::size_t i = 0; i < r.passes.size(); ++i) {
    if (r.passes[i].pass != i + 1 ||
        r.passes[i].wirelength != want.passes[i].wirelength ||
        r.passes[i].overflow != want.passes[i].overflow) {
      return "OPTIMIZE: PASS " + std::to_string(i + 1) +
             " mismatch vs reference";
    }
    if (i > 0 && (r.passes[i].wirelength > r.passes[i - 1].wirelength ||
                  r.passes[i].overflow > r.passes[i - 1].overflow)) {
      return "OPTIMIZE: pass curve not non-increasing";
    }
  }
  try {
    const route::NetlistResult parsed = io::read_routes_string(r.body, lay);
    if (parsed.total_wirelength != want.result.total_wirelength ||
        parsed.routed != want.result.routed) {
      return "OPTIMIZE: final dump mismatch vs reference";
    }
  } catch (const std::exception& e) {
    return std::string("OPTIMIZE: dump unparsable: ") + e.what();
  }
  return std::string();
}

/// Cross-checks a DETAIL/VERIFY reply against an in-process stage run over
/// the reference route: the reply meta must carry the stage's own meta and
/// the body must match byte-for-byte.  Empty string = good.
std::string check_stage(const serve::Reply& r, pipeline::StageKind kind,
                        const layout::Layout& lay,
                        const route::NetlistResult& reference) {
  const std::string name{pipeline::to_string(kind)};
  if (!r.ok) return name + ": " + r.error;
  route::SearchEnvironment env(lay);
  pipeline::StageOptions sopts;
  sopts.kind = kind;
  const pipeline::StageContext ctx{lay, env, reference, nullptr, {}};
  const pipeline::StageOutcome want = pipeline::run_stage(ctx, sopts);
  if (!want.result) return name + ": reference stage did not complete";
  const std::string prefix = "stage=" + name + " cached=";
  if (r.meta.rfind(prefix, 0) != 0) {
    return name + ": meta missing '" + prefix + "': " + r.meta;
  }
  if (!want.result->meta.empty() &&
      r.meta.find(want.result->meta) == std::string::npos) {
    return name + ": meta mismatch (want '" + want.result->meta + "', got '" +
           r.meta + "')";
  }
  if (r.body != want.result->body) return name + ": body mismatch";
  return std::string();
}

/// What one session observed.
struct SessionResult {
  std::size_t ok = 0;   // replies that passed their cross-check
  std::size_t bad = 0;  // replies that failed one
  std::vector<double> route_us;  // ROUTE round trips
  /// (verb, round-trip us) for every request the script sent — the
  /// per-verb table and the --stats-out audit aggregate these.
  std::vector<std::pair<std::string, double>> verb_us;
  std::string first_error;

  void fail(const std::string& why) {
    ++bad;
    if (first_error.empty()) first_error = why;
  }
  /// Counts one cross-check: \p err empty = passed.
  void check(const std::string& err) {
    if (err.empty()) {
      ++ok;
    } else {
      fail(err);
    }
  }
};

/// Runs the session script over one connection: LOAD (or GEN), \p routes
/// ROUTEs, DETAIL + VERIFY (--gen), REROUTE and OPTIMIZE (--optimize), each
/// reply checked against \p ref.  With \p repeat_load the LOAD/GEN goes out
/// twice and must answer cached=0 then cached=1 — exact only when no other
/// connection can load the same layout first.  The caller sends QUIT.
void run_session(const Config& cfg, const Reference& ref, std::size_t routes,
                 bool repeat_load, std::ostream& out, std::istream& in,
                 SessionResult& res) {
  const auto timed = [&](const std::string& verb, const std::string& line,
                         const std::string& body = std::string()) {
    const auto t0 = std::chrono::steady_clock::now();
    serve::Reply r = serve::call(out, in, line, body);
    res.verb_us.emplace_back(verb, std::chrono::duration<double, std::micro>(
                                       std::chrono::steady_clock::now() - t0)
                                       .count());
    if (r.broken) throw std::runtime_error(verb + ": " + r.error);
    return r;
  };
  try {
    const std::string verb = cfg.gen ? "GEN" : "LOAD";
    for (int attempt = 0; attempt < (repeat_load ? 2 : 1); ++attempt) {
      const serve::Reply r =
          cfg.gen ? timed(verb, gen_command(cfg, ref.seed))
                  : timed(verb, serve::load_command(ref.text), ref.text);
      if (!r.ok) {
        res.fail(verb + ": " + r.error);
        return;
      }
      if (cfg.gen && serve::meta_token(r.meta, "session") != ref.key) {
        res.fail("GEN: session key mismatch vs client-side generation (" +
                 r.meta + ")");
        return;
      }
      const long long cached = serve::meta_value(r.meta, "cached");
      res.check(!repeat_load || cached == attempt
                    ? std::string()
                    : verb + " attempt " + std::to_string(attempt) +
                          ": unexpected cached=" + std::to_string(cached));
    }

    std::string route_line = "ROUTE " + ref.key;
    if (cfg.deadline_ms >= 0) {
      route_line += " deadline_ms=" + std::to_string(cfg.deadline_ms);
    }
    for (std::size_t q = 0; q < routes; ++q) {
      const serve::Reply r = timed("ROUTE", route_line);
      res.route_us.push_back(res.verb_us.back().second);
      if (!r.ok) {
        res.fail("ROUTE: " + r.error);
        continue;
      }
      // The dump must parse against the layout and reproduce the
      // in-process reference exactly.
      try {
        const route::NetlistResult parsed =
            io::read_routes_string(r.body, ref.lay);
        const bool same =
            parsed.total_wirelength == ref.route.total_wirelength &&
            parsed.routed == ref.route.routed &&
            serve::meta_value(r.meta, "wirelength") ==
                static_cast<long long>(ref.route.total_wirelength);
        res.check(same ? "" : "ROUTE result mismatch vs reference");
      } catch (const std::exception& e) {
        res.fail(std::string("ROUTE dump unparsable: ") + e.what());
      }
    }

    if (cfg.gen) {
      // One DETAIL and one VERIFY round trip, each checked against an
      // in-process pipeline-stage run over the reference route.
      for (const pipeline::StageKind kind :
           {pipeline::StageKind::kDetail, pipeline::StageKind::kVerify}) {
        const std::string stage_verb =
            kind == pipeline::StageKind::kDetail ? "DETAIL" : "VERIFY";
        res.check(check_stage(timed(stage_verb, stage_verb + " " + ref.key),
                              kind, ref.lay, ref.route));
      }
    }
    if (!ref.reroute_line.empty()) {
      const serve::Reply r = timed("REROUTE", ref.reroute_line);
      if (!r.ok) {
        res.fail("REROUTE: " + r.error);
      } else {
        res.check(r.body == ref.reroute_body
                      ? ""
                      : "REROUTE dump mismatch vs reference");
      }
    }
    if (ref.optimize) {
      res.check(check_optimize(timed("OPTIMIZE", "OPTIMIZE " + ref.key),
                               ref.lay, *ref.optimize));
    }
  } catch (const std::exception& e) {
    res.fail(e.what());
  }
}

// ------------------------------------------------------------ forked server

struct Child {
  pid_t pid = -1;
  int read_fd = -1;   // responses arrive here
  int write_fd = -1;  // requests go here
};

/// Forks \p cfg.server speaking the protocol over a socketpair (--fd) or
/// over its stdin/stdout pipes.  Returns pid -1 on failure.
Child spawn_server(const Config& cfg) {
  Child child;
  std::vector<std::string> args{cfg.server, "--workers",
                                std::to_string(cfg.workers)};
  if (!cfg.pipe_transport) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return child;
    const pid_t pid = ::fork();
    if (pid < 0) return child;
    if (pid == 0) {
      ::close(sv[0]);
      // Pin the service end to a known descriptor for --fd.
      if (::dup2(sv[1], 3) < 0) _exit(127);
      if (sv[1] != 3) ::close(sv[1]);
      args.insert(args.end(), {"--fd", "3"});
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    ::close(sv[1]);
    child.pid = pid;
    child.read_fd = child.write_fd = sv[0];
    return child;
  }
  int to_child[2], from_child[2];
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) return child;
  const pid_t pid = ::fork();
  if (pid < 0) return child;
  if (pid == 0) {
    ::dup2(to_child[0], 0);
    ::dup2(from_child[1], 1);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  child.pid = pid;
  child.read_fd = from_child[0];
  child.write_fd = to_child[1];
  return child;
}

/// One connection over a socketpair or pipes: the session script with
/// clients x requests ROUTEs and the cached=0/1 LOAD check, then STATS and
/// QUIT; the server must exit 0 once the connection closes.
int run_against_server(const Config& cfg, const Reference& ref) {
  const Child child = spawn_server(cfg);
  if (child.pid < 0) {
    std::fprintf(stderr, "loadgen: cannot spawn %s\n", cfg.server.c_str());
    return 1;
  }
  std::printf("spawned %s (pid %d, %s transport)\n", cfg.server.c_str(),
              static_cast<int>(child.pid),
              cfg.pipe_transport ? "pipe" : "socketpair");

  SessionResult res;
  {
    serve::FdTransport transport(child.read_fd, child.write_fd);
    const auto t0 = std::chrono::steady_clock::now();
    run_session(cfg, ref, cfg.requests * cfg.clients, /*repeat_load=*/true,
                transport.out(), transport.in(), res);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const std::size_t total = res.verb_us.size();
    std::printf("%zu round trips, %.3f s, %.1f req/s, %zu failures\n", total,
                secs, secs > 0 ? static_cast<double>(total) / secs : 0.0,
                res.bad);

    const serve::Reply stats =
        serve::call(transport.out(), transport.in(), "STATS");
    if (stats.ok) {
      std::fputs(stats.body.c_str(), stdout);
    } else {
      res.fail("STATS: " + stats.error);
    }
    const serve::Reply bye =
        serve::call(transport.out(), transport.in(), "QUIT");
    if (!bye.ok) res.fail("QUIT: " + bye.error);
  }
  ::close(child.write_fd);
  if (child.read_fd != child.write_fd) ::close(child.read_fd);
  if (!res.first_error.empty()) {
    std::fprintf(stderr, "first error: %s\n", res.first_error.c_str());
  }

  int status = 0;
  ::waitpid(child.pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "server exited abnormally (status %d)\n", status);
    return 1;
  }
  return res.bad == 0 ? 0 : 1;
}

// ------------------------------------------------------------ TCP fan-out

struct TcpChild {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// Forks \p cfg.server with `--listen 0` and parses the bound port from its
/// stdout banner ("gcr_serve: listening on 127.0.0.1:<port>").
TcpChild spawn_tcp_server(const Config& cfg,
                          const std::vector<std::string>& extra = {}) {
  TcpChild child;
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return child;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return child;
  }
  if (pid == 0) {
    ::dup2(out_pipe[1], 1);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<std::string> args{cfg.server, "--workers",
                                  std::to_string(cfg.workers), "--listen",
                                  "0"};
    if (cfg.reactors > 1) {
      args.insert(args.end(), {"--reactors", std::to_string(cfg.reactors)});
    }
    if (cfg.gen) {
      // Distinct per-client seeds mean distinct sessions; the cache must
      // hold them all or mid-run eviction would fail later ROUTEs.
      args.insert(args.end(),
                  {"--cache", std::to_string(std::max<std::size_t>(
                                  cfg.clients * 2, 8))});
    }
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(out_pipe[1]);
  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos &&
         ::read(out_pipe[0], &c, 1) == 1) {
    banner.push_back(c);
  }
  ::close(out_pipe[0]);
  const std::size_t colon = banner.rfind(':');
  if (colon != std::string::npos) {
    const long port = std::strtol(banner.c_str() + colon + 1, nullptr, 10);
    if (port > 0 && port <= 65535) {
      child.pid = pid;
      child.port = static_cast<std::uint16_t>(port);
      return child;
    }
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return child;
}

/// Nearest-rank percentile of an (unsorted) latency sample, microseconds:
/// the ceil(q/100 * N)-th smallest value.
double percentile_us(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto nth = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[nth == 0 ? 0 : std::min(v.size(), nth) - 1];
}

/// Fetches STATS + TRACE over a fresh control connection, cross-checks the
/// server's counters against the clients' observations, and writes the
/// combined JSON audit to cfg.stats_out.  Returns the number of
/// cross-check failures.
int write_stats_audit(const Config& cfg, std::uint16_t port,
                      std::map<std::string, std::vector<double>>& verb_lat,
                      std::size_t client_ok, std::size_t client_bad) {
  std::string stats_body, trace_body;
  {
    const net::ScopedFd sock = net::tcp_connect(port);
    serve::FdTransport transport(sock.get());
    const serve::Reply stats =
        serve::call(transport.out(), transport.in(), "STATS");
    const serve::Reply trace =
        serve::call(transport.out(), transport.in(), "TRACE");
    (void)serve::call(transport.out(), transport.in(), "QUIT");
    if (!stats.ok || !trace.ok) {
      std::fprintf(stderr, "stats audit: control connection failed (%s%s)\n",
                   stats.error.c_str(), trace.error.c_str());
      return 1;
    }
    stats_body = stats.body;
    trace_body = trace.body;
  }

  // `<key> <value>` per line, every value numeric.
  std::map<std::string, long long> server;
  {
    std::istringstream is(stats_body);
    std::string k;
    long long v = 0;
    while (is >> k >> v) server[k] = v;
  }
  const auto counter = [&server](const char* key) {
    const auto it = server.find(key);
    return it == server.end() ? -1 : it->second;
  };

  int failures = 0;
  // Counter conservation: every admitted request ended in exactly one
  // terminal state.  The control connection's own STATS/TRACE are answered
  // inline (never submitted), so the equality is exact even now.
  const long long submitted = counter("requests_submitted");
  const long long terminal =
      counter("requests_ok") + counter("requests_rejected") +
      counter("requests_expired") + counter("requests_cancelled") +
      counter("requests_not_found") + counter("requests_errored");
  if (submitted < 0 || submitted != terminal) {
    std::fprintf(stderr,
                 "stats audit: counter conservation violated "
                 "(submitted=%lld, terminal sum=%lld)\n",
                 submitted, terminal);
    ++failures;
  }
  // Per-verb counts: the server's ROUTE shard must account for at least
  // every ROUTE round trip a client completed (crashed clients may have
  // sent fewer, never more).
  const auto check_verb = [&](const char* verb, const char* stat_key) {
    const auto it = verb_lat.find(verb);
    const long long sent =
        it == verb_lat.end() ? 0 : static_cast<long long>(it->second.size());
    if (counter(stat_key) < sent) {
      std::fprintf(stderr, "stats audit: %s %lld < %lld %s round trips\n",
                   stat_key, counter(stat_key), sent, verb);
      ++failures;
    }
  };
  check_verb("ROUTE", "verb_route_count");
  check_verb("REROUTE", "verb_reroute_count");
  check_verb("OPTIMIZE", "verb_optimize_count");
  check_verb("GEN", "verb_gen_count");

  std::ofstream os(cfg.stats_out);
  if (!os) {
    std::fprintf(stderr, "stats audit: cannot write %s\n",
                 cfg.stats_out.c_str());
    return failures + 1;
  }
  os << "{\n  \"server_stats\": {";
  bool first = true;
  for (const auto& [k, v] : server) {
    os << (first ? "\n" : ",\n") << "    \"" << k << "\": " << v;
    first = false;
  }
  os << "\n  },\n  \"trace\": [";
  {
    std::istringstream is(trace_body);
    std::string line;
    first = true;
    while (std::getline(is, line)) {
      os << (first ? "\n" : ",\n") << "    \"" << line << '"';
      first = false;
    }
  }
  os << "\n  ],\n  \"client\": {\n    \"connections\": " << cfg.clients
     << ",\n    \"ok\": " << client_ok << ",\n    \"failed\": " << client_bad
     << ",\n    \"verbs\": {";
  first = true;
  for (auto& [verb, v] : verb_lat) {
    const double mx = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    os << (first ? "\n" : ",\n") << "      \"" << verb
       << "\": {\"count\": " << v.size() << ", \"p50_us\": "
       << static_cast<long long>(percentile_us(v, 50)) << ", \"p95_us\": "
       << static_cast<long long>(percentile_us(v, 95)) << ", \"max_us\": "
       << static_cast<long long>(mx) << '}';
    first = false;
  }
  os << "\n    }\n  },\n  \"conservation\": {\"submitted\": " << submitted
     << ", \"terminal_sum\": " << terminal
     << ", \"holds\": " << (submitted == terminal ? "true" : "false")
     << "}\n}\n";
  std::printf("stats audit written to %s (%d cross-check failure%s)\n",
              cfg.stats_out.c_str(), failures, failures == 1 ? "" : "s");
  return failures;
}


/// N concurrent TCP connections, one session each (no cached=0/1 check:
/// clients that share a layout race to load it), then the latency tables,
/// the optional --stats-out audit, and a SIGINT drain that must exit 0.
int run_tcp(const Config& cfg, const Reference& ref) {
  std::signal(SIGPIPE, SIG_IGN);
  const TcpChild child = spawn_tcp_server(cfg);
  if (child.pid < 0) {
    std::fprintf(stderr, "loadgen: cannot spawn %s --listen 0\n",
                 cfg.server.c_str());
    return 1;
  }
  std::printf("spawned %s (pid %d) listening on 127.0.0.1:%u\n",
              cfg.server.c_str(), static_cast<int>(child.pid),
              static_cast<unsigned>(child.port));

  std::vector<SessionResult> results(cfg.clients);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(cfg.clients);
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      threads.emplace_back([&, c] {
        SessionResult& res = results[c];
        try {
          // GEN mode: every client synthesizes its own workload server-side
          // from a distinct seed, so its layout, reference route, and
          // session key differ from the shared ones.
          std::optional<Reference> own;
          if (cfg.gen && c > 0) own.emplace(make_reference(cfg, cfg.seed + c));
          const net::ScopedFd sock = net::tcp_connect(child.port);
          serve::FdTransport transport(sock.get());
          run_session(cfg, own ? *own : ref, cfg.requests,
                      /*repeat_load=*/false, transport.out(), transport.in(),
                      res);
          const serve::Reply bye =
              serve::call(transport.out(), transport.in(), "QUIT");
          if (!bye.ok) res.fail("QUIT: " + bye.error);
        } catch (const std::exception& e) {
          res.fail(e.what());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  std::size_t ok = 0, bad = 0;
  std::vector<double> all_us;
  for (const SessionResult& r : results) {
    ok += r.ok;
    bad += r.bad;
    all_us.insert(all_us.end(), r.route_us.begin(), r.route_us.end());
  }
  std::printf("%zu TCP round trips (%zu connections x %zu), %.3f s, "
              "%.1f req/s, %zu mismatched/failed\n",
              ok + bad, cfg.clients, cfg.requests, secs,
              secs > 0 ? static_cast<double>(ok + bad) / secs : 0.0, bad);

  // Per-client latency: every connection must see service, not just the
  // aggregate — a starved client hides inside a global histogram.
  std::printf("  %-8s %8s %10s %10s %10s\n", "client", "reqs", "p50_us",
              "p95_us", "max_us");
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    std::vector<double>& v = results[c].route_us;
    const double mx = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    std::printf("  %-8zu %8zu %10.0f %10.0f %10.0f\n", c, v.size(),
                percentile_us(v, 50), percentile_us(v, 95), mx);
    if (!results[c].first_error.empty()) {
      std::printf("           first error: %s\n",
                  results[c].first_error.c_str());
    }
  }
  // Aggregate histogram in power-of-two microsecond buckets.
  if (!all_us.empty()) {
    std::vector<std::size_t> buckets;
    for (const double us : all_us) {
      std::size_t b = 0;
      while ((1u << b) < us && b < 31) ++b;
      if (buckets.size() <= b) buckets.resize(b + 1, 0);
      ++buckets[b];
    }
    std::printf("  latency histogram (us, all clients):\n");
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b] == 0) continue;
      std::printf("    <= %8u : %zu\n", 1u << b, buckets[b]);
    }
  }

  // Per-verb latency across all clients: STATS shards these server-side,
  // and this table is the client-side view of the same split.
  std::map<std::string, std::vector<double>> verb_lat;
  for (const SessionResult& r : results) {
    for (const auto& [verb, us] : r.verb_us) verb_lat[verb].push_back(us);
  }
  std::printf("  per-verb round-trip latency (all clients):\n");
  std::printf("    %-10s %8s %10s %10s %10s\n", "verb", "count", "p50_us",
              "p95_us", "max_us");
  for (auto& [verb, v] : verb_lat) {
    const double mx = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    std::printf("    %-10s %8zu %10.0f %10.0f %10.0f\n", verb.c_str(),
                v.size(), percentile_us(v, 50), percentile_us(v, 95), mx);
  }

  int failures = static_cast<int>(bad);

  // --stats-out: one control connection reads the server's own view (STATS
  // + TRACE) while it is still up, cross-checks it against what the
  // clients measured, and archives both sides as JSON.
  if (!cfg.stats_out.empty()) {
    failures += write_stats_audit(cfg, child.port, verb_lat, ok, bad);
  }

  // Graceful shutdown: SIGINT must drain and exit 0.
  ::kill(child.pid, SIGINT);
  int status = 0;
  ::waitpid(child.pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "server did not shut down cleanly (status %d)\n",
                 status);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------ open loop

#if GCR_LOADGEN_HAVE_EPOLL

/// One pipelined open-loop connection: requests are written on the pacer's
/// schedule regardless of whether earlier responses have arrived, and the
/// framed replies are matched FIFO against their send timestamps.
struct OpenConn {
  net::ScopedFd fd;
  std::string outbuf;                                   // unwritten requests
  std::string inbuf;                                    // unparsed reply bytes
  std::size_t body_left = 0;                            // of current reply
  std::deque<std::chrono::steady_clock::time_point> inflight;
  bool out_armed = false;  // EPOLLOUT currently requested
  bool dead = false;
};

/// One offered-load step's measurements.
struct OpenStep {
  double offered = 0;    // target req/s
  double achieved = 0;   // sent / elapsed
  std::size_t sent = 0;
  std::size_t completed = 0;
  std::size_t errors = 0;  // ERR replies + dead connections
  double p50_us = 0;
  double p99_us = 0;
};

/// Drains fully framed replies out of \p oc.inbuf, recording one latency
/// sample per completed reply.  ERR replies complete their request too —
/// the pacer only cares that the response arrived.
void parse_replies(OpenConn& oc, std::vector<double>& lat_us,
                   std::size_t* completed, std::size_t* errors) {
  for (;;) {
    if (oc.body_left > 0) {
      const std::size_t take = std::min(oc.body_left, oc.inbuf.size());
      oc.inbuf.erase(0, take);
      oc.body_left -= take;
      if (oc.body_left > 0) return;  // need more bytes
      continue;                      // body done; next status line
    }
    const std::size_t nl = oc.inbuf.find('\n');
    if (nl == std::string::npos) return;
    const serve::StatusLine s =
        serve::parse_status(std::string_view(oc.inbuf).substr(0, nl));
    oc.inbuf.erase(0, nl + 1);
    if (s.kind == serve::StatusLine::Kind::kOk) {
      oc.body_left = s.body_bytes;
    } else {
      ++*errors;
    }
    if (!oc.inflight.empty()) {
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() -
                           oc.inflight.front())
                           .count());
      oc.inflight.pop_front();
      ++*completed;
    }
  }
}

/// Runs one offered-load step: \p total requests paced at \p offered req/s
/// round-robin over \p conns pipelined connections, all sending
/// `ROUTE <key>` against the preloaded shared session.
OpenStep run_open_step(std::uint16_t port, const std::string& request,
                       double offered, double step_s, std::size_t nconns) {
  OpenStep step;
  step.offered = offered;
  const auto total = static_cast<std::size_t>(offered * step_s);

  std::vector<OpenConn> conns(nconns);
  const net::ScopedFd ep(::epoll_create1(EPOLL_CLOEXEC));
  for (std::size_t i = 0; i < nconns; ++i) {
    conns[i].fd = net::tcp_connect(port);
    const int flags = ::fcntl(conns[i].fd.get(), F_GETFL, 0);
    ::fcntl(conns[i].fd.get(), F_SETFL, flags | O_NONBLOCK);
    ::epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep.get(), EPOLL_CTL_ADD, conns[i].fd.get(), &ev);
  }
  const auto rearm = [&](std::size_t i, bool want_out) {
    if (conns[i].out_armed == want_out) return;
    conns[i].out_armed = want_out;
    ::epoll_event ev{};
    ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
    ev.data.u64 = i;
    ::epoll_ctl(ep.get(), EPOLL_CTL_MOD, conns[i].fd.get(), &ev);
  };
  const auto flush = [&](std::size_t i) {
    OpenConn& oc = conns[i];
    while (!oc.outbuf.empty() && !oc.dead) {
      const ssize_t n =
          ::send(oc.fd.get(), oc.outbuf.data(), oc.outbuf.size(), 0);
      if (n > 0) {
        oc.outbuf.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        oc.dead = true;
        step.errors += oc.inflight.size();
        oc.inflight.clear();
      }
    }
    rearm(i, !oc.outbuf.empty() && !oc.dead);
  };

  std::vector<double> lat_us;
  lat_us.reserve(total);
  const auto t0 = std::chrono::steady_clock::now();
  // Grace period past the nominal step for the tail of responses.
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(step_s + 10.0));
  std::size_t next = 0;  // next request index to send
  std::array<::epoll_event, 64> events{};
  while (step.completed + step.errors < total) {
    const auto now = std::chrono::steady_clock::now();
    if (now > deadline) break;
    // Open loop: every request whose schedule slot has passed goes out
    // now, response progress notwithstanding.
    while (next < total &&
           now >= t0 + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(next) / offered))) {
      const std::size_t i = next % nconns;
      if (!conns[i].dead) {
        conns[i].outbuf += request;
        conns[i].inflight.push_back(std::chrono::steady_clock::now());
        ++step.sent;
        flush(i);
      } else {
        ++step.errors;  // the slot still counts against the step
      }
      ++next;
    }
    int timeout_ms = 50;
    if (next < total) {
      const auto next_at =
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(next) /
                                                 offered));
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_at - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(
          std::clamp<long long>(wait.count(), 0, 50));
    }
    const int nready = ::epoll_wait(ep.get(), events.data(),
                                    static_cast<int>(events.size()),
                                    timeout_ms);
    for (int e = 0; e < nready; ++e) {
      const std::size_t i = events[static_cast<std::size_t>(e)].data.u64;
      const std::uint32_t what = events[static_cast<std::size_t>(e)].events;
      OpenConn& oc = conns[i];
      if (oc.dead) continue;
      if ((what & EPOLLOUT) != 0u) flush(i);
      if ((what & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0u) {
        char buf[65536];
        for (;;) {
          const ssize_t n = ::recv(oc.fd.get(), buf, sizeof buf, 0);
          if (n > 0) {
            oc.inbuf.append(buf, static_cast<std::size_t>(n));
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            oc.dead = true;
            step.errors += oc.inflight.size();
            oc.inflight.clear();
            break;
          }
        }
        parse_replies(oc, lat_us, &step.completed, &step.errors);
      }
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  step.achieved = secs > 0 ? static_cast<double>(step.sent) / secs : 0.0;
  step.p50_us = percentile_us(lat_us, 50);
  step.p99_us = percentile_us(lat_us, 99);
  return step;
}

/// Open-loop mode: preload one shared session, then sweep the offered-load
/// steps, printing the p99-vs-offered-load curve and optionally archiving
/// it as a JSON artifact (the CI saturation plot).
int run_open_loop(const Config& cfg, const std::string& layout_text) {
  std::signal(SIGPIPE, SIG_IGN);
  const TcpChild child = spawn_tcp_server(cfg);
  if (child.pid < 0) {
    std::fprintf(stderr, "loadgen: cannot spawn %s --listen 0\n",
                 cfg.server.c_str());
    return 1;
  }
  std::printf("spawned %s (pid %d, %zu reactors) on 127.0.0.1:%u\n",
              cfg.server.c_str(), static_cast<int>(child.pid), cfg.reactors,
              static_cast<unsigned>(child.port));

  int failures = 0;
  std::vector<OpenStep> steps;
  try {
    const std::string key = serve::SessionCache::content_key(layout_text);
    {
      // Warm the shared session once so every paced ROUTE is a cache hit —
      // the curve measures dispatch, not repeated layout parsing.
      const net::ScopedFd sock = net::tcp_connect(child.port);
      serve::FdTransport transport(sock.get());
      const serve::Reply loaded =
          serve::call(transport.out(), transport.in(),
                      serve::load_command(layout_text), layout_text);
      (void)serve::call(transport.out(), transport.in(), "QUIT");
      if (!loaded.ok) {
        std::fprintf(stderr, "open-loop: LOAD failed: %s\n",
                     loaded.error.c_str());
        ::kill(child.pid, SIGKILL);
        ::waitpid(child.pid, nullptr, 0);
        return 1;
      }
    }
    const std::string request = "ROUTE " + key + "\n";

    std::istringstream is(cfg.offered);
    std::string tok;
    std::printf("  %10s %10s %8s %9s %7s %10s %10s\n", "offered", "achieved",
                "sent", "completed", "errors", "p50_us", "p99_us");
    while (std::getline(is, tok, ',')) {
      const double offered = std::strtod(tok.c_str(), nullptr);
      if (offered <= 0) continue;
      const OpenStep step =
          run_open_step(child.port, request, offered, cfg.step_s, cfg.conns);
      std::printf("  %10.0f %10.1f %8zu %9zu %7zu %10.0f %10.0f\n",
                  step.offered, step.achieved, step.sent, step.completed,
                  step.errors, step.p50_us, step.p99_us);
      // A step that lost responses (beyond ERRs, which complete) means the
      // tail outlived the grace window — saturation is data, losses are not.
      if (step.completed + step.errors < step.sent) ++failures;
      steps.push_back(step);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "open-loop: fatal: %s\n", e.what());
    ++failures;
  }

  if (!cfg.curve_out.empty()) {
    std::ofstream os(cfg.curve_out);
    if (!os) {
      std::fprintf(stderr, "open-loop: cannot write %s\n",
                   cfg.curve_out.c_str());
      ++failures;
    } else {
      os << "{\n  \"connections\": " << cfg.conns
         << ",\n  \"reactors\": " << cfg.reactors
         << ",\n  \"step_s\": " << cfg.step_s << ",\n  \"curve\": [";
      bool first = true;
      for (const OpenStep& s : steps) {
        os << (first ? "\n" : ",\n") << "    {\"offered_rps\": " << s.offered
           << ", \"achieved_rps\": " << s.achieved << ", \"sent\": " << s.sent
           << ", \"completed\": " << s.completed
           << ", \"errors\": " << s.errors << ", \"p50_us\": " << s.p50_us
           << ", \"p99_us\": " << s.p99_us << '}';
        first = false;
      }
      os << "\n  ]\n}\n";
      std::printf("p99-vs-offered-load curve written to %s\n",
                  cfg.curve_out.c_str());
    }
  }

  ::kill(child.pid, SIGINT);
  int status = 0;
  ::waitpid(child.pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "server did not shut down cleanly (status %d)\n",
                 status);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

#endif  // GCR_LOADGEN_HAVE_EPOLL

// ------------------------------------------------------------ restart smoke

/// SIGINTs a server and reports whether it drained and exited cleanly.
bool drain_server(pid_t pid) {
  ::kill(pid, SIGINT);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Restart-under-load smoke: proves a pinned session survives a full
/// server restart.  Server 1 (--snapshot-dir) serves HELLO + LOAD + PIN +
/// COMMIT + SAVE; the reference REROUTE answer is recorded *after* the
/// SAVE, so the snapshot captures exactly the pre-REROUTE state that
/// answer was computed from.  Server 1 is then SIGINT-drained and server 2
/// starts with --restore-dir: claiming the same handle and repeating the
/// REROUTE must reproduce the recorded body byte-for-byte (timing meta
/// excluded — only routed/failed/wirelength and the dump are compared).
int run_restart(const Config& cfg, const std::string& layout_text,
                const layout::Layout& lay) {
  std::signal(SIGPIPE, SIG_IGN);
  if (lay.nets().size() < 2) {
    std::fprintf(stderr, "restart smoke needs a workload with >= 2 nets\n");
    return 1;
  }
  std::string all_nets;
  for (const auto& net : lay.nets()) {
    if (!all_nets.empty()) all_nets += ',';
    all_nets += net.name();
  }
  const std::string rip =
      lay.nets()[0].name() + "," + lay.nets()[1].name();

  int failures = 0;
  const auto fail = [&failures](const std::string& why) {
    std::fprintf(stderr, "restart smoke: %s\n", why.c_str());
    ++failures;
  };

  std::string handle;
  std::string want_body;
  long long want_routed = -1, want_failed = -1, want_wirelength = -1;
  long long committed_at_save = -1;

  // ---- phase 1: pin, commit, save, record the reference answer, drain.
  {
    const TcpChild server =
        spawn_tcp_server(cfg, {"--snapshot-dir", cfg.restart_dir});
    if (server.pid < 0) {
      std::fprintf(stderr, "loadgen: cannot spawn %s --listen 0\n",
                   cfg.server.c_str());
      return 1;
    }
    std::printf("restart smoke: server 1 (pid %d) on 127.0.0.1:%u\n",
                static_cast<int>(server.pid),
                static_cast<unsigned>(server.port));
    {
      const net::ScopedFd sock = net::tcp_connect(server.port);
      serve::FdTransport transport(sock.get());
      std::istream& in = transport.in();
      std::ostream& out = transport.out();

      const serve::Reply hello = serve::call(out, in, "HELLO");
      if (!hello.ok) {
        fail("HELLO: " + hello.error);
      } else if (serve::meta_value(hello.meta, "version") != 2) {
        fail("HELLO: unexpected protocol version (" + hello.meta + ")");
      }

      const serve::Reply loaded =
          serve::call(out, in, serve::load_command(layout_text), layout_text);
      if (!loaded.ok) {
        fail("LOAD: " + loaded.error);
      } else {
        const std::string key = serve::meta_token(loaded.meta, "session");
        const serve::Reply pinned = serve::call(out, in, "PIN " + key);
        if (!pinned.ok) {
          fail("PIN: " + pinned.error);
        } else {
          handle = serve::meta_token(pinned.meta, "pin");
          const serve::Reply committed =
              serve::call(out, in, "COMMIT " + handle + " nets=" + all_nets);
          if (!committed.ok) {
            fail("COMMIT: " + committed.error);
          } else {
            committed_at_save = serve::meta_value(committed.meta, "committed");
            const serve::Reply saved =
                serve::call(out, in, "SAVE " + handle + " restart-smoke.snap");
            if (!saved.ok) {
              fail("SAVE: " + saved.error);
            } else if (serve::meta_value(saved.meta, "bytes") <= 0) {
              fail("SAVE: empty snapshot (" + saved.meta + ")");
            }
            const serve::Reply rr =
                serve::call(out, in, "REROUTE " + handle + " nets=" + rip);
            if (!rr.ok) {
              fail("REROUTE (live): " + rr.error);
            } else {
              want_body = rr.body;
              want_routed = serve::meta_value(rr.meta, "routed");
              want_failed = serve::meta_value(rr.meta, "failed");
              want_wirelength = serve::meta_value(rr.meta, "wirelength");
            }
          }
        }
      }
      (void)serve::call(out, in, "QUIT");
    }
    if (!drain_server(server.pid)) fail("server 1 did not drain cleanly");
  }
  if (failures > 0 || handle.empty()) return 1;

  // ---- phase 2: restore, claim the handle, repeat the REROUTE, compare.
  {
    const TcpChild server =
        spawn_tcp_server(cfg, {"--restore-dir", cfg.restart_dir});
    if (server.pid < 0) {
      std::fprintf(stderr, "loadgen: cannot respawn %s --listen 0\n",
                   cfg.server.c_str());
      return 1;
    }
    std::printf("restart smoke: server 2 (pid %d) on 127.0.0.1:%u\n",
                static_cast<int>(server.pid),
                static_cast<unsigned>(server.port));
    {
      const net::ScopedFd sock = net::tcp_connect(server.port);
      serve::FdTransport transport(sock.get());
      std::istream& in = transport.in();
      std::ostream& out = transport.out();

      const serve::Reply claimed = serve::call(out, in, "PIN " + handle);
      if (!claimed.ok) {
        fail("PIN (restored): " + claimed.error);
      } else if (serve::meta_value(claimed.meta, "committed") != committed_at_save) {
        fail("restored pin committed-count mismatch (" + claimed.meta + ")");
      }
      const serve::Reply rr = serve::call(out, in, "REROUTE " + handle + " nets=" + rip);
      if (!rr.ok) {
        fail("REROUTE (restored): " + rr.error);
      } else {
        if (rr.body != want_body) fail("restored REROUTE body differs");
        if (serve::meta_value(rr.meta, "routed") != want_routed ||
            serve::meta_value(rr.meta, "failed") != want_failed ||
            serve::meta_value(rr.meta, "wirelength") != want_wirelength) {
          fail("restored REROUTE counters differ (" + rr.meta + ")");
        }
      }
      (void)serve::call(out, in, "QUIT");
    }
    if (!drain_server(server.pid)) fail("server 2 did not drain cleanly");
  }
  if (failures == 0) {
    std::printf("restart smoke: pinned session survived restart, "
                "REROUTE byte-identical (%lld routed, wirelength %lld)\n",
                want_routed, want_wirelength);
  }
  return failures == 0 ? 0 : 1;
}

#endif  // GCR_LOADGEN_HAVE_FORK

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto number = [&](std::size_t limit, std::size_t* out) {
      if (v == nullptr) return false;
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || v[0] == '-' || parsed > limit) {
        return false;
      }
      *out = static_cast<std::size_t>(parsed);
      ++i;
      return true;
    };
    std::size_t n = 0;
    if (arg == "--server" && v != nullptr) {
      cfg.server = v;
      ++i;
    } else if (arg == "--transport" && v != nullptr) {
      const std::string t = v;
      if (t != "socket" && t != "pipe") return usage(argv[0]);
      cfg.pipe_transport = t == "pipe";
      ++i;
    } else if (arg == "--tcp") {
      cfg.tcp = true;
    } else if (arg == "--optimize") {
      cfg.optimize = true;
    } else if (arg == "--gen") {
      cfg.gen = true;
    } else if (arg == "--clients" && number(1024, &n)) {
      cfg.clients = std::max<std::size_t>(n, 1);
    } else if (arg == "--requests" && number(1 << 20, &n)) {
      cfg.requests = n;
    } else if (arg == "--workers" && number(1024, &n)) {
      cfg.workers = n;
    } else if (arg == "--reactors" && number(256, &n)) {
      cfg.reactors = std::max<std::size_t>(n, 1);
    } else if (arg == "--open-loop") {
      cfg.open_loop = true;
    } else if (arg == "--offered" && v != nullptr && v[0] != '\0') {
      cfg.offered = v;
      ++i;
    } else if (arg == "--conns" && number(1 << 16, &n)) {
      cfg.conns = std::max<std::size_t>(n, 1);
    } else if (arg == "--step-s" && number(3600, &n)) {
      cfg.step_s = static_cast<double>(std::max<std::size_t>(n, 1));
    } else if (arg == "--curve-out" && v != nullptr && v[0] != '\0') {
      cfg.curve_out = v;
      ++i;
    } else if (arg == "--cells" && number(4096, &n)) {
      cfg.cells = std::max<std::size_t>(n, 2);
    } else if (arg == "--nets" && number(1 << 16, &n)) {
      cfg.nets = n;
    } else if (arg == "--seed" && number(SIZE_MAX, &n)) {
      cfg.seed = n;
    } else if (arg == "--deadline-ms" && number(1 << 30, &n)) {
      cfg.deadline_ms = static_cast<long>(n);
    } else if (arg == "--restart-dir" && v != nullptr && v[0] != '\0') {
      cfg.restart_dir = v;
      ++i;
    } else if (arg == "--stats-out" && v != nullptr && v[0] != '\0') {
      cfg.stats_out = v;
      ++i;
    } else {
      return usage(argv[0]);
    }
  }
  if (!cfg.stats_out.empty() && !cfg.tcp) {
    std::fprintf(stderr, "--stats-out needs --tcp (the audit connection "
                 "rides the TCP front-end)\n");
    return usage(argv[0]);
  }
  if (cfg.server.empty()) {
    std::fprintf(stderr, "--server PATH is required\n");
    return usage(argv[0]);
  }
  if (cfg.gen && cfg.optimize) {
    // OPTIMIZE cross-checks ride the shared workload; GEN gives every
    // client its own.  Keep the reference bookkeeping simple.
    std::fprintf(stderr, "--gen and --optimize are mutually exclusive\n");
    return usage(argv[0]);
  }
  if (cfg.open_loop && !cfg.tcp) {
    std::fprintf(stderr, "--open-loop needs --tcp\n");
    return usage(argv[0]);
  }

#if GCR_LOADGEN_HAVE_FORK
  try {
    // The in-process reference: the ground truth every reply is compared
    // against (routing is deterministic).
    const Reference ref = make_reference(cfg, cfg.seed);
    std::printf("workload: %zu cells, %zu nets, reference wirelength %lld "
                "(%zu routed, %zu failed)\n",
                ref.lay.cells().size(), ref.lay.nets().size(),
                static_cast<long long>(ref.route.total_wirelength),
                ref.route.routed, ref.route.failed);

    if (!cfg.restart_dir.empty()) return run_restart(cfg, ref.text, ref.lay);
    if (cfg.open_loop) {
#if GCR_LOADGEN_HAVE_EPOLL
      return run_open_loop(cfg, ref.text);
#else
      std::fprintf(stderr, "--open-loop requires Linux epoll\n");
      return 2;
#endif
    }
    if (cfg.tcp) return run_tcp(cfg, ref);
    return run_against_server(cfg, ref);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen: fatal: %s\n", e.what());
    return 1;
  }
#else
  std::fprintf(stderr, "gcr_loadgen requires a POSIX platform\n");
  return 1;
#endif
}
