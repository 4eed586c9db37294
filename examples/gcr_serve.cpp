// gcr_serve — the routing daemon: speaks the framed line protocol of
// serve/protocol.hpp over stdin/stdout (the pipe transport), over an
// inherited descriptor (the socketpair transport), or — the multi-client
// network mode — over TCP and unix sockets, all backed by one persistent
// worker pool and a content-addressed layout-session cache.  Every
// transport is served by the same epoll front-end (src/net/), framer and
// per-verb dispatcher, so a script answers with the same bytes over a pipe
// as over TCP.  A pipe or inherited descriptor is one connection whose
// commands run one at a time; the daemon exits when it closes.  Linux
// only: elsewhere the front-end's epoll stub fails at start.
//
//   $ gcr_serve [options]
//     --workers N      routing worker threads (0 = one per hardware thread)
//     --queue N        fair job-queue capacity (total, all shards)
//                      (default 64)
//     --cache N        layout-session cache capacity   (default 8)
//     --fd FD          serve a bidirectional descriptor (e.g. one end of a
//                      socketpair) instead of stdin/stdout
//     --listen PORT    serve many concurrent TCP clients on 127.0.0.1:PORT
//                      (0 = kernel-assigned; the bound port is printed as
//                      "gcr_serve: listening on 127.0.0.1:<port>")
//     --reactors N     network mode: N event-loop threads sharing the port
//                      via SO_REUSEPORT (connection-affine; default 1)
//     --listen-unix P  also accept connections on unix socket path P
//                      (same protocol; served by the first reactor)
//     --max-conns N    network mode: per-reactor connection cap
//                      (default 256)
//     --high-water N   per-connection outbound bytes past which reads are
//                      suspended (slow-client backpressure)
//     --hard-cap N     network mode: outbound bytes past which a slow
//                      client is dropped (a pipe peer never is)
//     --snapshot-dir D enable SAVE: pinned sessions serialize to D/<name>;
//                      a graceful drain writes a final snapshot per
//                      surviving pin after every loop quiesces
//     --snapshot-interval-s N
//                      with --snapshot-dir: background-SAVE every pinned
//                      session every N seconds (rides each pin's ticket
//                      chain, so it never tears a mutation)
//     --restore-dir D  rehydrate every snapshot in D at startup; restored
//                      pins are unowned until a client PINs their handle
//     --slow-ms N      slow-request ring threshold: only requests taking at
//                      least N ms are retained for the TRACE verb
//                      (default 0 = keep the slowest seen regardless)
//
// A session survives across requests: LOAD once, ROUTE many times — every
// ROUTE reuses the session's prebuilt obstacle index and escape lines, and
// `REROUTE <session> nets=a,b` rips the named nets out of a full
// sequential pass and re-routes them against the committed remainder
// (incremental halo removal, no environment rebuild).  Cold LOADs build on
// the worker pool, so in network mode one giant layout upload cannot stall
// the other connections.  With --reactors N the kernel shards accepted
// connections across N independent epoll loops; all of them feed one
// worker pool through the fair queue, so responses are byte-identical to
// the single-reactor build.  In every mode SIGINT/SIGTERM shut down
// gracefully: every listener closes, in-flight jobs drain and flush, and
// the loop threads join as a barrier before the final pin snapshots are
// written (a second signal force-closes lingering connections).
//
//   $ printf 'LOAD 47\nboundary 0 0 64 64\ncell a 8 8 24 24\n...' | gcr_serve

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>

#include "net/reactor_pool.hpp"
#include "serve/routing_service.hpp"

namespace {

gcr::net::ReactorPool* g_pool = nullptr;

extern "C" void on_shutdown_signal(int) {
  if (g_pool != nullptr) g_pool->stop();  // async-signal-safe
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--queue N] [--cache N] [--fd FD]\n"
               "       [--snapshot-dir DIR [--snapshot-interval-s N]]\n"
               "       [--restore-dir DIR] [--slow-ms N]\n"
               "       [--listen PORT [--reactors N] [--listen-unix PATH]\n"
               "        [--max-conns N] [--high-water BYTES]\n"
               "        [--hard-cap BYTES]]\n",
               argv0);
  return 2;
}

bool parse_size(const char* v, std::size_t limit, std::size_t* out) {
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(v, &end, 10);
  if (end == v || *end != '\0' || v[0] == '-' || parsed > limit) return false;
  *out = static_cast<std::size_t>(parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gcr;

  serve::RoutingService::Options opts;
  net::EventLoopOptions lopts;
  std::size_t reactors = 1;
  long fd = -1;
  long listen_port = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::size_t parsed = 0;
    if (arg == "--workers" && v != nullptr && parse_size(v, 1024, &parsed)) {
      opts.workers = parsed;
      ++i;
    } else if (arg == "--queue" && v != nullptr &&
               parse_size(v, 1 << 20, &parsed)) {
      opts.queue_capacity = parsed;
      ++i;
    } else if (arg == "--cache" && v != nullptr &&
               parse_size(v, 1 << 16, &parsed)) {
      opts.cache_capacity = parsed;
      ++i;
    } else if (arg == "--fd" && v != nullptr && parse_size(v, 1 << 20, &parsed)) {
      fd = static_cast<long>(parsed);
      ++i;
    } else if (arg == "--listen" && v != nullptr &&
               parse_size(v, 65535, &parsed)) {
      listen_port = static_cast<long>(parsed);
      ++i;
    } else if (arg == "--reactors" && v != nullptr &&
               parse_size(v, 256, &parsed) && parsed > 0) {
      reactors = parsed;
      ++i;
    } else if (arg == "--listen-unix" && v != nullptr && v[0] != '\0') {
      lopts.unix_path = v;
      ++i;
    } else if (arg == "--snapshot-interval-s" && v != nullptr &&
               parse_size(v, 86'400, &parsed) && parsed > 0) {
      opts.snapshot_interval_s = parsed;
      ++i;
    } else if (arg == "--max-conns" && v != nullptr &&
               parse_size(v, 1 << 16, &parsed) && parsed > 0) {
      lopts.max_connections = parsed;
      ++i;
    } else if (arg == "--high-water" && v != nullptr &&
               parse_size(v, 1ull << 30, &parsed) && parsed > 0) {
      lopts.write_high_water = parsed;
      ++i;
    } else if (arg == "--hard-cap" && v != nullptr &&
               parse_size(v, 1ull << 31, &parsed) && parsed > 0) {
      lopts.write_hard_cap = parsed;
      ++i;
    } else if (arg == "--snapshot-dir" && v != nullptr && v[0] != '\0') {
      opts.snapshot_dir = v;
      ++i;
    } else if (arg == "--restore-dir" && v != nullptr && v[0] != '\0') {
      opts.restore_dir = v;
      ++i;
    } else if (arg == "--slow-ms" && v != nullptr &&
               parse_size(v, 86'400'000, &parsed)) {
      opts.slow_threshold_ms = parsed;
      ++i;
    } else {
      return usage(argv[0]);
    }
  }
  if (lopts.write_hard_cap < lopts.write_high_water) {
    std::fprintf(stderr, "gcr_serve: --hard-cap must be >= --high-water\n");
    return 2;
  }
  if (opts.snapshot_interval_s > 0 && opts.snapshot_dir.empty()) {
    std::fprintf(stderr,
                 "gcr_serve: --snapshot-interval-s requires --snapshot-dir\n");
    return 2;
  }

  try {
    serve::RoutingService service(opts);
    const bool network = listen_port >= 0 || !lopts.unix_path.empty();
    std::optional<net::ReactorPool> pool;
    if (network) {
      // --listen-unix alone still binds TCP (port 0 = kernel-assigned) so
      // the banner contract with spawners holds in every network mode.
      lopts.port = listen_port >= 0 ? static_cast<std::uint16_t>(listen_port)
                                    : std::uint16_t{0};
      net::ReactorPoolOptions popts;
      popts.reactors = reactors;
      popts.loop = lopts;
      pool.emplace(service, popts);
    } else {
      // stdin/stdout, or one inherited descriptor both ways.
      const int in_fd = fd >= 0 ? static_cast<int>(fd) : 0;
      const int out_fd = fd >= 0 ? static_cast<int>(fd) : 1;
      pool.emplace(service, lopts, in_fd, out_fd);
    }
    g_pool = &*pool;
    std::signal(SIGINT, on_shutdown_signal);
    std::signal(SIGTERM, on_shutdown_signal);
    std::signal(SIGPIPE, SIG_IGN);
    if (network) {
      // The banner is the contract with spawners (gcr_loadgen --tcp, the CI
      // smoke job): parse the bound port from stdout when --listen 0.
      std::printf("gcr_serve: listening on 127.0.0.1:%u\n",
                  static_cast<unsigned>(pool->port()));
      std::fflush(stdout);
    }
    pool->run();  // returns once every reactor has drained (the barrier)
    g_pool = nullptr;
    // Only now — all loops quiesced, every in-flight pinned-session
    // mutation finished or cancelled — write the final snapshots.
    if (!opts.snapshot_dir.empty()) {
      const std::size_t saved = service.final_save_pins();
      if (saved > 0) {
        std::fprintf(stderr, "gcr_serve: final save: %zu pin(s)\n", saved);
      }
    }
    net::LoopStatsView total;
    for (std::size_t i = 0; i < pool->size(); ++i) {
      total.merge(net::snapshot_loop_stats(pool->loop(i).stats()));
    }
    std::fprintf(stderr,
                 "gcr_serve: drained %zu reactor(s): %llu conns, "
                 "%llu commands, %llu suspended, %llu dropped slow, "
                 "%llu dropped error\n",
                 pool->size(), static_cast<unsigned long long>(total.accepted),
                 static_cast<unsigned long long>(total.commands),
                 static_cast<unsigned long long>(total.reads_suspended),
                 static_cast<unsigned long long>(total.dropped_slow),
                 static_cast<unsigned long long>(total.dropped_error));
    // A served descriptor pair is the only connection, so losing it to an
    // I/O error is the run's outcome.  A listener drains to exit 0 however
    // many of its clients failed.
    if (!network && total.dropped_error > 0) return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gcr_serve: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
