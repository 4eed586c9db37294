// E11 — serving-layer throughput: requests/sec vs worker count.
//
// The routing service amortizes the per-layout setup (ObstacleIndex +
// EscapeLineSet, built once into a cached LayoutSession) across requests
// and fans requests out over a persistent worker pool.  Two claims are
// measured: (1) closed-loop requests/sec on one cached session scales with
// the worker count, because independent-mode routing shares a read-only
// environment; (2) a session-cache hit skips environment construction
// entirely, so a warm LOAD is orders of magnitude cheaper than a cold one.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/search_environment.hpp"
#include "net/reactor_pool.hpp"
#include "net/socket.hpp"
#include "serve/client.hpp"
#include "serve/layout_session.hpp"
#include "serve/routing_service.hpp"
#include "spatial/escape_lines.hpp"
#include "spatial/obstacle_index.hpp"

namespace {

using namespace gcr;

/// A table cell's closed-loop rate.  A failed request is not throughput:
/// if any of the \p requests failed, the bench reports it and exits 1.
double rate_or_exit(std::size_t requests, std::size_t failed, double secs,
                    const char* table) {
  if (failed > 0) {
    std::fprintf(stderr, "bench_serve: %zu of %zu requests failed (%s)\n",
                 failed, requests, table);
    std::exit(1);
  }
  return secs > 0 ? static_cast<double>(requests) / secs : 0.0;
}

/// Closed-loop: `clients` threads each fire `per_client` requests
/// back-to-back at a service with `workers` routing workers.
double requests_per_sec(std::size_t workers, std::size_t clients,
                        std::size_t per_client, const std::string& text) {
  serve::RoutingService::Options opts;
  opts.workers = workers;
  opts.queue_capacity = clients * 2 + 8;
  serve::RoutingService service(opts);
  const auto session = service.load(text);

  std::atomic<std::size_t> failed{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (std::size_t q = 0; q < per_client; ++q) {
        serve::RouteRequest req;
        req.session_key = session->key;
        if (!service.route(std::move(req)).ok()) ++failed;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return rate_or_exit(clients * per_client, failed, secs, "in-process");
}

#if defined(__linux__)

/// Closed-loop requests/sec through the network front-end: `connections`
/// concurrent TCP clients (kernel-sharded across `reactors` SO_REUSEPORT
/// event loops), each firing `per_client` ROUTEs back-to-back.
double tcp_requests_per_sec(std::size_t connections, std::size_t per_client,
                            const std::string& text,
                            std::size_t reactors = 1) {
  serve::RoutingService::Options sopts;
  sopts.queue_capacity = connections * 2 + 8;
  serve::RoutingService service(sopts);
  net::ReactorPoolOptions popts;
  popts.reactors = reactors;
  net::ReactorPool pool(service, popts);
  std::thread pool_thread([&pool] { pool.run(); });

  const std::string key = serve::SessionCache::content_key(text);
  std::atomic<std::size_t> failed{0};
  {
    // Prime the session cache over the wire.
    const net::ScopedFd fd = net::tcp_connect(pool.port());
    serve::FdTransport t(fd.get());
    if (!serve::call(t.out(), t.in(), serve::load_command(text), text).ok) {
      ++failed;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      const net::ScopedFd fd = net::tcp_connect(pool.port());
      serve::FdTransport t(fd.get());
      for (std::size_t q = 0; q < per_client; ++q) {
        if (!serve::call(t.out(), t.in(), "ROUTE " + key).ok) ++failed;
      }
      (void)serve::call(t.out(), t.in(), "QUIT");
    });
  }
  for (std::thread& t : clients) t.join();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  pool.stop();
  pool_thread.join();
  return rate_or_exit(connections * per_client, failed, secs, "TCP");
}

/// Reactors × connections matrix: the multi-reactor scaling claim.  When
/// GCR_SERVE_SCALING_OUT names a file, the table is also archived as a
/// JSON artifact (the CI scaling plot).
void print_reactor_table(const std::string& text) {
  std::puts("requests/sec: reactors x concurrent TCP connections");
  std::puts("(SO_REUSEPORT shards accepted connections across N event"
            " loops;");
  std::puts(" all loops feed one worker pool through the fair queue):");
  const std::vector<std::size_t> reactor_counts{1, 2, 4};
  const std::vector<std::size_t> conn_counts{4, 16, 32};
  std::printf("  %-10s", "reactors");
  for (const std::size_t conns : conn_counts) {
    std::printf(" %8zu conns", conns);
  }
  std::printf("\n");
  std::vector<std::vector<double>> rps(reactor_counts.size());
  for (std::size_t r = 0; r < reactor_counts.size(); ++r) {
    std::printf("  %-10zu", reactor_counts[r]);
    for (const std::size_t conns : conn_counts) {
      const double v = tcp_requests_per_sec(conns, 4, text,
                                            reactor_counts[r]);
      rps[r].push_back(v);
      std::printf(" %14.1f", v);
    }
    std::printf("\n");
  }
  std::puts("  (single-loop accept/read/flush saturates one core;"
            " sharding the\n   front-end keeps the worker pool fed once"
            " connections outnumber it)");

  const char* out_path = std::getenv("GCR_SERVE_SCALING_OUT");
  if (out_path != nullptr && out_path[0] != '\0') {
    std::ofstream os(out_path);
    os << "{\n  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n  \"per_client\": 4"
       << ",\n  \"rows\": [";
    for (std::size_t r = 0; r < reactor_counts.size(); ++r) {
      os << (r == 0 ? "\n" : ",\n") << "    {\"reactors\": "
         << reactor_counts[r] << ", \"req_s\": {";
      for (std::size_t c = 0; c < conn_counts.size(); ++c) {
        os << (c == 0 ? "" : ", ") << '"' << conn_counts[c]
           << "\": " << rps[r][c];
      }
      os << "}}";
    }
    os << "\n  ]\n}\n";
    std::printf("  scaling table written to %s\n", out_path);
  }
}

void print_tcp_table(const std::string& text) {
  std::puts("requests/sec vs concurrent TCP connections (epoll front-end,");
  std::puts("one worker pool, default workers):");
  std::printf("  %-12s %12s %10s\n", "connections", "req/s", "speedup");
  double base = 0.0;
  for (const std::size_t conns : {1u, 4u, 16u}) {
    const double rps = tcp_requests_per_sec(conns, 4, text);
    if (conns == 1) base = rps;
    std::printf("  %-12zu %12.1f %9.2fx\n", conns, rps,
                base > 0 ? rps / base : 0.0);
  }
  std::puts("  (the event loop multiplexes every connection onto the same\n"
            "   cached session and pool; scaling flattens when the pool\n"
            "   saturates, not when connections do)");
}

#else  // !__linux__

void print_tcp_table(const std::string&) {
  std::puts("(TCP front-end table skipped: requires Linux epoll)");
}

void print_reactor_table(const std::string&) {
  std::puts("(reactor scaling table skipped: requires Linux epoll)");
}

#endif  // __linux__

void print_table() {
  std::puts("E11 — routing service: throughput scaling and session reuse");
  bench::rule('-', 72);

  const std::string text = bench::workload_text(25, 40, 105);
  std::printf("hardware threads: %u (wall-clock scaling needs >1;"
              " CPU-time split is machine-independent)\n",
              std::thread::hardware_concurrency());
  std::puts("requests/sec vs routing workers (25 cells, 40 nets,"
            " 8 closed-loop clients):");
  std::printf("  %-8s %12s %10s\n", "workers", "req/s", "speedup");
  double base = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const double rps = requests_per_sec(workers, 8, 6, text);
    if (workers == 1) base = rps;
    std::printf("  %-8zu %12.1f %9.2fx\n", workers, rps,
                base > 0 ? rps / base : 0.0);
  }
  std::puts("  (one cached session, shared read-only search environment —\n"
            "   the paper's independent-net claim turned into service"
            " throughput)");

  print_tcp_table(text);
  print_reactor_table(text);

  // Session cache: cold LOAD parses + builds the environment; warm LOAD is
  // a hash lookup.  The build counter proves the skip.
  std::puts("session cache (cold = parse + index + escape lines,"
            " warm = hash hit):");
  serve::RoutingService service;
  const auto builds_before = route::SearchEnvironment::build_count();
  const auto t0 = std::chrono::steady_clock::now();
  (void)service.load(text);
  const auto t1 = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) (void)service.load(text);
  const auto t2 = std::chrono::steady_clock::now();
  const auto builds_after = route::SearchEnvironment::build_count();
  const double cold_us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  const double warm_us =
      std::chrono::duration<double, std::micro>(t2 - t1).count() / 100.0;
  std::printf("  cold LOAD %10.1f us   warm LOAD %8.2f us   (%.0fx)\n",
              cold_us, warm_us, warm_us > 0 ? cold_us / warm_us : 0.0);
  std::printf("  environments built: %zu (cold) + %zu (100 warm loads)\n",
              static_cast<std::size_t>(1),
              static_cast<std::size_t>(builds_after - builds_before - 1));

  // Cold-load anatomy: EscapeLineSet construction dominates large
  // floorplans and is embarrassingly parallel per obstacle edge (each
  // obstacle's lines land in preassigned slots, so every thread count is
  // bit-identical).  Serial vs parallel build on a floorplan big enough to
  // clear the auto-parallel threshold:
  std::puts("cold-build anatomy (600-cell floorplan, escape-line set):");
  const layout::Layout big = bench::make_workload(600, 8000, 1, 11);
  const spatial::ObstacleIndex big_index(big.boundary(), big.obstacles());
  const auto b0 = std::chrono::steady_clock::now();
  const spatial::EscapeLineSet serial_lines(big_index, 1);
  const auto b1 = std::chrono::steady_clock::now();
  const spatial::EscapeLineSet parallel_lines(big_index, 0);
  const auto b2 = std::chrono::steady_clock::now();
  const double serial_ms =
      std::chrono::duration<double, std::milli>(b1 - b0).count();
  const double parallel_ms =
      std::chrono::duration<double, std::milli>(b2 - b1).count();
  std::printf(
      "  serial %8.2f ms   parallel(auto) %8.2f ms   (%.2fx, %zu lines,"
      " identical: %s)\n",
      serial_ms, parallel_ms,
      parallel_ms > 0 ? serial_ms / parallel_ms : 0.0,
      parallel_lines.lines().size(),
      serial_lines.lines() == parallel_lines.lines() ? "yes" : "NO");
  bench::rule('-', 72);
}

void BM_EscapeLineBuild(benchmark::State& state) {
  // The cold-session-load hot spot: escape-line construction over a large
  // floorplan, serial (threads=1) vs auto-parallel (threads=0).
  const layout::Layout big = bench::make_workload(600, 8000, 1, 11);
  const spatial::ObstacleIndex index(big.boundary(), big.obstacles());
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const spatial::EscapeLineSet lines(index, threads);
    benchmark::DoNotOptimize(lines.lines().size());
  }
  state.SetLabel(threads == 0 ? "auto threads" : "serial");
}
BENCHMARK(BM_EscapeLineBuild)->Arg(1)->Arg(0);

void BM_ServiceRoute(benchmark::State& state) {
  const std::string text = bench::workload_text(25, 40, 105);
  serve::RoutingService::Options opts;
  opts.workers = static_cast<std::size_t>(state.range(0));
  serve::RoutingService service(opts);
  const auto session = service.load(text);
  for (auto _ : state) {
    serve::RouteRequest req;
    req.session_key = session->key;
    benchmark::DoNotOptimize(service.route(std::move(req)));
  }
  state.SetLabel(std::to_string(state.range(0)) + " workers");
}
BENCHMARK(BM_ServiceRoute)->Arg(1)->Arg(4);

void BM_SessionLoadWarm(benchmark::State& state) {
  const std::string text = bench::workload_text(25, 40, 105);
  serve::RoutingService service;
  (void)service.load(text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.load(text));
  }
}
BENCHMARK(BM_SessionLoadWarm);

void BM_SessionLoadCold(benchmark::State& state) {
  const std::string text = bench::workload_text(25, 40, 105);
  for (auto _ : state) {
    serve::SessionCache cache(2);
    benchmark::DoNotOptimize(cache.load(text));
  }
}
BENCHMARK(BM_SessionLoadCold);

}  // namespace

GCR_BENCH_MAIN(print_table)
