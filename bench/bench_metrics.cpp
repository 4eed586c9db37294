// E12 — observability overhead: what the tracing/metrics layer costs.
//
// PR 9's instrumentation sits on every request's hot path, so this bench
// pins down three costs: (1) Histogram::record — three relaxed fetch_adds;
// (2) rendering the full STATS body (histogram snapshots + percentile walks
// for every verb shard); (3) the end-to-end ROUTE delta between trace=0
// (spans stamped, nothing rendered) and trace=1 (span breakdown appended to
// the response meta).
//
// The deterministic table prints the machine-independent contract first:
// the exact STATS key inventory (service keys, and loop_* keys over a live
// TCP front-end), the span keys a traced response carries, the log2 bucket
// boundaries, and whether the u64 atomics the histogram relies on are
// lock-free.  Set GCR_METRICS_OUT=<path> to write that contract as JSON —
// CI diffs it against bench/baselines/bench_metrics.json, so renaming or
// dropping a STATS key, changing the bucket math, or regressing record()
// past a generous sanity bound fails the build.  Wall-clock numbers print
// to stdout (and run under google-benchmark) but are NOT in the JSON:
// timings are machine-dependent and would make the diff gate flaky.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "serve/metrics.hpp"
#include "serve/routing_service.hpp"
#include "serve/trace.hpp"

#if defined(__linux__)
#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "serve/client.hpp"
#endif

namespace {

using namespace gcr;

/// First whitespace-separated token of every line — the STATS key set.
std::vector<std::string> body_keys(const std::string& body) {
  std::vector<std::string> keys;
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) {
    const std::size_t sp = line.find(' ');
    if (sp != std::string::npos && sp > 0) keys.push_back(line.substr(0, sp));
  }
  return keys;
}

/// ` k=v k=v ...` -> the key names, in order.
std::vector<std::string> meta_keys(const std::string& meta) {
  std::vector<std::string> keys;
  std::istringstream is(meta);
  std::string tok;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos) keys.push_back(tok.substr(0, eq));
  }
  return keys;
}

std::vector<std::string> service_stats_keys() {
  serve::RoutingService service;
  return body_keys(service.stats_text());
}

std::vector<std::string> span_keys() {
  serve::RequestTrace t;
  t.subs.push_back({"stage_run", 0});
  return meta_keys(t.render_meta());
}

#if defined(__linux__)
/// loop_* keys as a TCP client sees them: STATS through a live event loop.
std::vector<std::string> loop_stats_keys() {
  serve::RoutingService service;
  net::EventLoop loop(service);
  std::thread loop_thread([&loop] { loop.run(); });
  std::vector<std::string> keys;
  {
    const net::ScopedFd fd = net::tcp_connect(loop.port());
    serve::FdTransport t(fd.get());
    const serve::Reply stats = serve::call(t.out(), t.in(), "STATS");
    (void)serve::call(t.out(), t.in(), "QUIT");
    for (std::string& k : body_keys(stats.body)) {
      if (k.rfind("loop_", 0) == 0) keys.push_back(std::move(k));
    }
  }
  loop.stop();
  loop_thread.join();
  return keys;
}
#else
std::vector<std::string> loop_stats_keys() { return {}; }
#endif

// ------------------------------------------------------------- wall clocks

/// Median of `reps` timings of `iters` calls to `fn`, in ns per call.
template <typename Fn>
double median_ns_per_call(std::size_t reps, std::size_t iters, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(iters));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct OverheadReport {
  double hist_record_ns = 0;
  double stats_render_us = 0;
  double route_plain_us = 0;
  double route_traced_us = 0;
};

OverheadReport measure_overhead() {
  OverheadReport rep;

  serve::Histogram hist;
  rep.hist_record_ns = median_ns_per_call(
      9, 1'000'000, [&](std::size_t i) { hist.record(i & 0xffff); });

  const std::string text = bench::workload_text(25, 40, 105);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);
  // Populate every shard so the render walks realistic histograms.
  for (std::size_t k = 0; k < serve::kVerbKinds; ++k) {
    for (int i = 0; i < 64; ++i) {
      service.record_verb_latency(static_cast<serve::VerbKind>(k),
                                  100 + 37 * i);
    }
  }
  rep.stats_render_us =
      median_ns_per_call(9, 200, [&](std::size_t) {
        std::string body = service.stats_text();
        if (body.empty()) std::abort();
      }) /
      1e3;

  // Interleave the two variants request by request so clock drift and
  // cache-warming affect both medians equally — two separate timing blocks
  // would let a few percent of drift masquerade as tracing overhead.
  const auto one_route_us = [&](bool traced) {
    serve::RouteRequest req;
    req.session_key = session->key;
    req.trace = traced;
    req.received = std::chrono::steady_clock::now();
    const auto t0 = std::chrono::steady_clock::now();
    const serve::RouteResponse resp = service.route(std::move(req));
    const auto t1 = std::chrono::steady_clock::now();
    if (!resp.ok()) std::abort();
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
  };
  std::vector<double> plain, traced;
  for (int i = 0; i < 40; ++i) {
    if (i % 2 == 0) {
      plain.push_back(one_route_us(false));
      traced.push_back(one_route_us(true));
    } else {
      traced.push_back(one_route_us(true));
      plain.push_back(one_route_us(false));
    }
  }
  std::sort(plain.begin(), plain.end());
  std::sort(traced.begin(), traced.end());
  rep.route_plain_us = plain[plain.size() / 2];
  rep.route_traced_us = traced[traced.size() / 2];
  return rep;
}

// ------------------------------------------------------------------- table

void json_string_list(std::ostream& os, const char* name,
                      const std::vector<std::string>& items, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << pad << '"' << name << "\": [";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << items[i] << '"';
  }
  os << ']';
}

void write_metrics_json(const char* path, const OverheadReport& rep) {
  std::ofstream os(path);
  os << "{\n";
  json_string_list(os, "stats_keys", service_stats_keys(), 2);
  os << ",\n";
  json_string_list(os, "loop_stats_keys", loop_stats_keys(), 2);
  os << ",\n";
  json_string_list(os, "span_keys", span_keys(), 2);
  os << ",\n  \"histogram\": {\n    \"lock_free\": "
     << (std::atomic<std::uint64_t>::is_always_lock_free ? "true" : "false")
     << ",\n    \"buckets\": [";
  const std::uint64_t probes[] = {0, 1, 2, 3, 4, 1023, 1024, 1u << 20};
  bool first = true;
  for (const std::uint64_t v : probes) {
    if (!first) os << ", ";
    first = false;
    const std::size_t b = serve::Histogram::bucket_index(v);
    os << "{\"value\": " << v << ", \"bucket\": " << b
       << ", \"upper\": " << serve::Histogram::bucket_upper(b) << '}';
  }
  // Sanity bounds only — orders of magnitude above any healthy build, so
  // the gate trips on a catastrophic regression (a mutex or allocation on
  // the record path; percentile math gone quadratic), never on CI jitter.
  // The precise numbers are on stdout and in the benchmark artifacts.
  os << "]\n  },\n  \"overhead_sane\": {\n"
     << "    \"record_under_5000ns\": "
     << (rep.hist_record_ns < 5000 ? "true" : "false") << ",\n"
     << "    \"stats_render_under_50ms\": "
     << (rep.stats_render_us < 50'000 ? "true" : "false") << "\n  }\n}\n";
}

void print_table() {
  std::puts("E12 — observability: instrumentation cost and STATS contract");
  bench::rule('-', 72);

  const std::vector<std::string> keys = service_stats_keys();
  std::printf("STATS body keys (service): %zu\n ", keys.size());
  for (const std::string& k : keys) std::printf(" %s", k.c_str());
  std::putchar('\n');
  const std::vector<std::string> loop_keys = loop_stats_keys();
  std::printf("STATS body keys (event loop): %zu\n ", loop_keys.size());
  for (const std::string& k : loop_keys) std::printf(" %s", k.c_str());
  std::putchar('\n');
  std::printf("trace=1 span keys:\n ");
  for (const std::string& k : span_keys()) std::printf(" %s", k.c_str());
  std::putchar('\n');
  std::printf("histogram: 65 log2 buckets, u64 atomics lock-free: %s\n",
              std::atomic<std::uint64_t>::is_always_lock_free ? "yes" : "NO");

  const OverheadReport rep = measure_overhead();
  std::puts("record cost (median ns/sample, single thread):");
  std::printf("  Histogram::record   %8.1f ns  (3 relaxed fetch_adds)\n",
              rep.hist_record_ns);
  std::printf("STATS render: %.1f us (all %zu verb shards populated)\n",
              rep.stats_render_us, serve::kVerbKinds);
  const double delta_pct =
      rep.route_plain_us > 0
          ? 100.0 * (rep.route_traced_us - rep.route_plain_us) /
                rep.route_plain_us
          : 0.0;
  std::printf("ROUTE end-to-end (median us): trace=0 %.1f, trace=1 %.1f"
              "  (delta %+.1f%%)\n",
              rep.route_plain_us, rep.route_traced_us, delta_pct);
  std::puts("  (spans are stamped unconditionally; trace=1 only adds the\n"
            "   meta rendering, so the delta bounds the knob's cost)");
  bench::rule('-', 72);

  if (const char* out = std::getenv("GCR_METRICS_OUT")) {
    write_metrics_json(out, rep);
    std::printf("  metrics contract JSON written to %s\n", out);
  }
}

// -------------------------------------------------------------- benchmarks

void BM_HistogramRecord(benchmark::State& state) {
  serve::Histogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 2862933555777941757ull + 3037000493ull) & 0xffff;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord)->ThreadRange(1, 8);

void BM_HistogramSnapshotPercentiles(benchmark::State& state) {
  serve::Histogram h;
  for (std::uint64_t i = 0; i < 4096; ++i) h.record(100 + 37 * i);
  for (auto _ : state) {
    const serve::Histogram::Snapshot s = h.snapshot();
    benchmark::DoNotOptimize(s.percentile(50));
    benchmark::DoNotOptimize(s.percentile(95));
    benchmark::DoNotOptimize(s.percentile(99));
  }
}
BENCHMARK(BM_HistogramSnapshotPercentiles);

void BM_StatsRender(benchmark::State& state) {
  serve::RoutingService service;
  for (std::size_t k = 0; k < serve::kVerbKinds; ++k) {
    for (int i = 0; i < 64; ++i) {
      service.record_verb_latency(static_cast<serve::VerbKind>(k),
                                  100 + 37 * i);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.stats_text());
  }
}
BENCHMARK(BM_StatsRender);

void BM_ServiceRouteTraced(benchmark::State& state) {
  const std::string text = bench::workload_text(25, 40, 105);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);
  const bool traced = state.range(0) != 0;
  for (auto _ : state) {
    serve::RouteRequest req;
    req.session_key = session->key;
    req.trace = traced;
    req.received = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(service.route(std::move(req)));
  }
  state.SetLabel(traced ? "trace=1" : "trace=0");
}
BENCHMARK(BM_ServiceRouteTraced)->Arg(0)->Arg(1);

}  // namespace

GCR_BENCH_MAIN(print_table)
