// perfbench_driver — one benchmark run: generates a workload from a seed,
// starts the gcr_serve daemon, loads the layouts, drives requests over TCP
// for a fixed time, checks every reply against an in-process reference, and
// prints one JSON result object as the last line of stdout.
//
//   perfbench_driver --server PATH --workload route|optimize|serve
//                    --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics (client-observed latency and
// throughput, set-up time); --trace 1 sends every request with `trace=1`
// and reports the per-layer metrics instead.  See README.md.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client.hpp"
#include "core/netlist_router.hpp"
#include "core/optimize.hpp"
#include "core/search_environment.hpp"
#include "io/route_dump.hpp"
#include "io/text_format.hpp"
#include "verify/route_verifier.hpp"
#include "workload/netgen.hpp"

// Heap allocations made by this thread: the reference runs read it around
// each engine call to report allocations per A* expansion.
namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace gcr;
using perfbench::Conn;
using perfbench::Daemon;
using perfbench::Reply;
using perfbench::meta_value;
using Clock = std::chrono::steady_clock;

enum class Verb { kRoute, kOptimize };

/// One traffic mix.  Request i is one verb against resident session i, the
/// whole netlist; every `reroute_every`-th request (0 = none) is instead
/// `REROUTE <key> nets=<first two nets>`.  One round sends each request
/// once.
struct Workload {
  const char* name;
  Verb verb;
  std::size_t layouts;  ///< sessions, one request each
  std::size_t cells;
  geom::Coord extent;
  std::size_t nets;
  std::size_t reroute_every;
  std::size_t clients;   ///< closed-loop connections
  std::size_t workers;   ///< daemon worker threads, one CPU each
  std::size_t reactors;  ///< daemon event loops (`--reactors`)
};

// route:    whole-netlist ROUTE (independent nets, serial) — the search
//           kernel dominates.
// optimize: OPTIMIZE on congested layouts — sequential commits, rip-up
//           (remove_route) and re-route passes.  Most sequential searches
//           fail here, and their cost is heavy-tailed (CV about 0.45 per
//           layout at any size), so a run needs several hundred layouts for
//           its mean to vary by only a few percent from seed to seed.  A
//           cap of two passes (one rip-up-and-re-route pass) halves the cost
//           of a request and lowers its CV to about 0.35, so 384 layouts
//           fit in a run.
// serve:    gcr_loadgen --tcp's default mix — 4 clients, 16-cell / 24-net
//           layouts at extent 640, per client 8 whole-netlist ROUTEs then
//           one REROUTE of the first two nets — but every request on a
//           session of its own instead of one shared layout, so the fair
//           queue has several shards and the seed-to-seed spread of the
//           mix stays small, and with 2 workers and 2 reactors, so 4
//           clients keep a queue standing.
constexpr Workload kWorkloads[] = {
    {.name = "route", .verb = Verb::kRoute, .layouts = 128, .cells = 20,
     .extent = 640, .nets = 32, .reroute_every = 0, .clients = 1,
     .workers = 1, .reactors = 1},
    {.name = "optimize", .verb = Verb::kOptimize, .layouts = 384, .cells = 20,
     .extent = 320, .nets = 48, .reroute_every = 0, .clients = 1,
     .workers = 1, .reactors = 1},
    {.name = "serve", .verb = Verb::kRoute, .layouts = 288, .cells = 16,
     .extent = 640, .nets = 24, .reroute_every = 9, .clients = 4,
     .workers = 2, .reactors = 2},
};
constexpr std::size_t kMinRounds = 4;
constexpr std::size_t kOptimizePasses = 2;
constexpr int kProbeReps = 3;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

struct Session {
  std::string text;  ///< the LOAD body
  layout::Layout lay;
  std::unique_ptr<route::SearchEnvironment> env;
};

/// A request with the answer the daemon must give, and what was observed.
struct Request {
  std::size_t session = 0;
  bool reroute = false;
  std::vector<std::size_t> nets_rerouted;
  std::string want_body;
  std::string want_progress;  ///< OPTIMIZE's PASS lines
  long long want_wirelength = 0;
  std::size_t nets = 0;  ///< nets the request routes
  search::SearchStats stats;
  std::uint64_t allocs = 0;
  double best_us = std::numeric_limits<double>::infinity();
  double best_exec_us = std::numeric_limits<double>::infinity();
};

/// In-process layer probes: per layout, the fastest of kProbeReps runs.
struct Probes {
  std::vector<double> parse_us, build_us, copy_us;
};

std::vector<Session> make_sessions(const Workload& w, std::uint64_t seed,
                                   Probes& probes) {
  std::uint64_t state = seed;
  std::vector<Session> sessions;
  sessions.reserve(w.layouts);
  for (std::size_t i = 0; i < w.layouts; ++i) {
    const layout::Layout gen =
        workload::standard_workload(w.cells, w.extent, w.nets, splitmix(state));
    Session s{io::write_layout_string(gen), layout::Layout{}, nullptr};
    double parse = 1e300, build = 1e300, copy = 1e300;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      auto t0 = Clock::now();
      s.lay = io::read_layout_string(s.text);
      parse = std::min(parse, seconds_since(t0) * 1e6);
      t0 = Clock::now();
      s.env = std::make_unique<route::SearchEnvironment>(s.lay);
      build = std::min(build, seconds_since(t0) * 1e6);
      t0 = Clock::now();
      const route::SearchEnvironment dup(*s.env);
      copy = std::min(copy, seconds_since(t0) * 1e6);
    }
    probes.parse_us.push_back(parse);
    probes.build_us.push_back(build);
    probes.copy_us.push_back(copy);
    sessions.push_back(std::move(s));
  }
  return sessions;
}

std::vector<Request> make_requests(const Workload& w,
                                   const std::vector<Session>& sessions) {
  std::vector<Request> reqs(sessions.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Request& r = reqs[i];
    r.session = i;
    r.nets = sessions[r.session].lay.nets().size();
    if (w.reroute_every > 0 && (i + 1) % w.reroute_every == 0) {
      r.reroute = true;
      r.nets_rerouted = {0, 1};
      r.nets = r.nets_rerouted.size();
    }
  }
  return reqs;
}

/// Computes each request's answer in-process, exactly as the daemon's
/// worker does (same options, injected environment), and checks it with the
/// independent route verifier.  Returns an error message, empty when clean.
std::string compute_references(const Workload& w,
                               const std::vector<Session>& sessions,
                               std::vector<Request>& reqs) {
  verify::VerifyOptions vopts;
  vopts.require_all_routed = false;
  std::string error;
  for (Request& r : reqs) {
    const Session& s = sessions[r.session];
    route::NetlistResult result;
    const std::uint64_t allocs0 = t_allocs;
    if (w.verb == Verb::kOptimize) {
      route::OptimizeOptions oopts;
      oopts.max_passes = kOptimizePasses;
      route::OptimizeReport report =
          route::Optimizer(s.lay, *s.env).run(oopts);
      r.allocs = t_allocs - allocs0;
      for (const route::OptimizePassStats& p : report.passes) {
        r.want_progress += "PASS " + std::to_string(p.pass) +
                           " wirelength=" + std::to_string(p.wirelength) +
                           " overflow=" + std::to_string(p.overflow) + "\n";
      }
      result = std::move(report.result);
      r.want_body = io::write_routes_string(s.lay, result);
    } else {
      // REROUTE on a plain session: a sequential run that rips up and
      // re-routes the named nets; only those are dumped.
      route::NetlistOptions opts;
      if (r.reroute) {
        opts.mode = route::NetlistMode::kSequential;
        opts.reroute = r.nets_rerouted;
      }
      result = route::NetlistRouter(s.lay, *s.env).route_all(opts);
      r.allocs = t_allocs - allocs0;
      r.want_body = r.reroute
                        ? io::write_routes_string(s.lay, result, opts.reroute)
                        : io::write_routes_string(s.lay, result);
    }
    r.stats = result.stats;
    r.want_wirelength = static_cast<long long>(result.total_wirelength);
    const auto violations = verify::verify_routes(s.lay, result, vopts);
    if (!violations.empty() && error.empty()) {
      error = "reference route fails verification: " +
              std::string(verify::to_string(violations.front().kind));
    }
  }
  return error;
}

/// Starts a daemon pinned to \p cpus and LOADs every session; returns the
/// session keys.
std::vector<std::string> set_up(const std::string& server, const Workload& w,
                                const std::vector<Session>& sessions,
                                const std::vector<int>& cpus,
                                std::unique_ptr<Daemon>& daemon) {
  daemon = std::make_unique<Daemon>(
      server,
      std::vector<std::string>{
          "--workers", std::to_string(w.workers), "--reactors",
          std::to_string(w.reactors), "--cache",
          std::to_string(std::max<std::size_t>(w.layouts, 8))},
      cpus);
  Conn conn(daemon->port());
  std::vector<std::string> keys;
  for (const Session& s : sessions) {
    const Reply r = conn.call("LOAD " + std::to_string(s.text.size()), s.text);
    if (!r.ok || meta_value(r.meta, "cached") != 0) {
      throw std::runtime_error("LOAD failed: " + r.error + r.meta);
    }
    keys.push_back(perfbench::meta_token(r.meta, "session"));
  }
  return keys;
}

/// What one client saw; trace=1 span sums cover its successful requests.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t traced = 0;
  std::string error;
  double transport_us = 0, admit_us = 0, queue_us = 0, exec_us = 0,
         finish_us = 0;
};

std::string check_reply(const Request& r, const Reply& rep) {
  if (!rep.ok) return "daemon answered ERR " + rep.error;
  if (rep.body != r.want_body) return "route dump differs from the reference";
  if (rep.progress != r.want_progress) {
    return "OPTIMIZE pass curve differs from the reference";
  }
  if (meta_value(rep.meta, "wirelength") != r.want_wirelength) {
    return "meta wirelength differs from the reference";
  }
  return std::string();
}

/// Sends requests [first, last) once each, in order, on \p conn.  Each
/// request belongs to exactly one client, so its `best_*` fields are
/// written by one thread only.
void run_share(Conn& conn, const std::vector<std::string>& lines,
               std::vector<Request>& reqs, std::size_t first,
               std::size_t last, const std::vector<int>& cpus, bool trace,
               Tally& out) {
  try {
    perfbench::pin_to(cpus);
    for (std::size_t i = first; i < last; ++i) {
      Request& r = reqs[i];
      const auto t0 = Clock::now();
      const Reply rep = conn.call(lines[i]);
      const double us = seconds_since(t0) * 1e6;
      ++out.attempted;
      if (std::string err = check_reply(r, rep); !err.empty()) {
        ++out.failed;
        if (out.error.empty()) out.error = err;
        continue;
      }
      r.best_us = std::min(r.best_us, us);
      if (trace) {
        const auto span = [&](const char* key) {
          return static_cast<double>(meta_value(rep.meta, key));
        };
        const double exec = span("span_env_us") + span("span_exec_us");
        ++out.traced;
        out.transport_us += us - span("total_us");
        out.admit_us += span("span_admit_us");
        out.queue_us += span("span_queue_us");
        out.exec_us += exec;
        out.finish_us += span("span_finish_us");
        r.best_exec_us = std::min(r.best_exec_us, exec);
      }
    }
  } catch (const std::exception& e) {
    ++out.failed;
    if (out.error.empty()) out.error = e.what();
  }
}

/// One round: every request once, split evenly over the clients, which run
/// concurrently on their own connections, on \p cpus.  Returns the round's
/// wall time in seconds.
double run_round(std::uint16_t port, const std::vector<std::string>& lines,
                 std::vector<Request>& reqs, const std::vector<int>& cpus,
                 bool trace, std::vector<Tally>& tallies) {
  const std::size_t n = reqs.size();
  const std::size_t clients = tallies.size();
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<Conn>(port));
  }
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back(run_share, std::ref(*conns[c]), std::cref(lines),
                           std::ref(reqs), c * n / clients,
                           (c + 1) * n / clients, std::cref(cpus), trace,
                           std::ref(tallies[c]));
    }
  }  // joins
  return seconds_since(t0);
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

struct Args {
  std::string server;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--server") {
      a.server = v;
    } else if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      a.trace = std::string(v) == "1";
    } else {
      return false;
    }
  }
  return !a.server.empty();
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args, const Workload& w) {
  // Inputs and reference answers: a pure function of the seed.
  const std::uint64_t seed = args.seed * 0x2545F4914F6CDD1Dull +
                             static_cast<std::uint64_t>(&w - kWorkloads);
  Probes probes;
  std::vector<Session> sessions = make_sessions(w, seed, probes);
  std::vector<Request> reqs = make_requests(w, sessions);
  std::string error = compute_references(w, sessions, reqs);

  // Rounds until the measured time is used up.  Each round gets a fresh
  // daemon (its start-up and LOADs are one set-up sample) pinned to the
  // next CPUs in turn: on a shared machine single CPUs slow down for
  // seconds at a time, and each request's fastest round is what counts.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<std::string> keys, lines;
  std::vector<Tally> tallies(w.clients);
  std::vector<double> setup_s, round_s;
  double measured = 0.0;
  for (std::size_t round = 0;
       measured < args.seconds || round < kMinRounds; ++round) {
    // The daemon takes one CPU per worker, starting at the round number;
    // the clients take the rest (all of them when none are left).
    std::vector<int> pin, rest;
    for (std::size_t k = 0; k < cpus.size(); ++k) {
      (k < w.workers ? pin : rest).push_back(cpus[(round + k) % cpus.size()]);
    }
    if (rest.empty()) rest = cpus;
    std::unique_ptr<Daemon> daemon;
    const auto t0 = Clock::now();
    std::vector<std::string> got =
        set_up(args.server, w, sessions, pin, daemon);
    setup_s.push_back(seconds_since(t0));
    if (keys.empty()) {
      keys = std::move(got);
      const std::string optimize_knobs =
          " passes=" + std::to_string(kOptimizePasses);
      for (const Request& r : reqs) {
        std::string line = w.verb == Verb::kOptimize
                               ? "OPTIMIZE " + keys[r.session] + optimize_knobs
                               : (r.reroute ? "REROUTE " : "ROUTE ") +
                                     keys[r.session];
        for (std::size_t k = 0; k < r.nets_rerouted.size(); ++k) {
          line += (k == 0 ? " nets=" : ",") +
                  sessions[r.session].lay.nets()[r.nets_rerouted[k]].name();
        }
        lines.push_back(line + (args.trace ? " trace=1" : ""));
      }
    } else if (got != keys) {
      error = "session keys differ between daemons";
    }
    round_s.push_back(
        run_round(daemon->port(), lines, reqs, rest, args.trace, tallies));
    measured += round_s.back();
    if (!daemon->stop()) error = "daemon did not drain cleanly";
  }

  Tally t;
  for (const Tally& c : tallies) {
    t.attempted += c.attempted;
    t.failed += c.failed;
    t.traced += c.traced;
    if (t.error.empty()) t.error = c.error;
    t.transport_us += c.transport_us;
    t.admit_us += c.admit_us;
    t.queue_us += c.queue_us;
    t.exec_us += c.exec_us;
    t.finish_us += c.finish_us;
  }
  if (error.empty()) error = t.error;
  const bool correct = error.empty() && t.failed == 0 && t.attempted > 0;
  if (!error.empty()) std::fprintf(stderr, "perfbench: %s\n", error.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> best_ms;
    for (const Request& r : reqs) {
      if (std::isfinite(r.best_us)) best_ms.push_back(r.best_us / 1e3);
    }
    std::sort(best_ms.begin(), best_ms.end());
    // Requests completed per second of the fastest round's wall time.
    const double rps = static_cast<double>(reqs.size()) /
                       *std::min_element(round_s.begin(), round_s.end());
    metrics = {
        {"latency_p50_ms", percentile(best_ms, 0.50), "ms"},
        {"latency_p90_ms", percentile(best_ms, 0.90), "ms"},
        {"throughput_rps", rps, "1/s"},
        {"setup_s", median(setup_s), "s"},
    };
  } else {
    const double n = std::max<double>(1.0, static_cast<double>(t.traced));
    double expanded = 0, generated = 0, nets = 0, allocs = 0, best_exec = 0;
    for (const Request& r : reqs) {
      expanded += static_cast<double>(r.stats.nodes_expanded);
      generated += static_cast<double>(r.stats.nodes_generated);
      nets += static_cast<double>(r.nets);
      allocs += static_cast<double>(r.allocs);
      if (std::isfinite(r.best_exec_us)) best_exec += r.best_exec_us;
    }
    expanded = std::max(expanded, 1.0);
    metrics = {
        {"transport_us", t.transport_us / n, "us"},
        {"admit_us", t.admit_us / n, "us"},
        {"queue_us", t.queue_us / n, "us"},
        {"exec_us", t.exec_us / n, "us"},
        {"finish_us", t.finish_us / n, "us"},
        {"exec_ns_per_expansion", best_exec * 1e3 / expanded, "ns"},
        {"expansions_per_net", expanded / std::max(nets, 1.0), "count"},
        {"successors_per_expansion", generated / expanded, "count"},
        {"allocs_per_expansion", allocs / expanded, "count"},
        {"layout_parse_us", median(probes.parse_us), "us"},
        {"env_build_us", median(probes.build_us), "us"},
        {"env_copy_us", median(probes.copy_us), "us"},
    };
  }
  std::fprintf(stderr,
               "perfbench: %s seed=%llu: %llu requests in %.2f s, %llu failed, "
               "%zu set-ups\n",
               w.name, static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(t.attempted), measured,
               static_cast<unsigned long long>(t.failed), setup_s.size());
  print_result(correct, t.attempted, t.failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --server PATH --workload route|optimize|serve "
                 "--seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload != w.name) continue;
    try {
      return run(args, w);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
