#pragma once

// Shared helpers for the experiment benchmarks (E1..E10).  Each bench binary
// prints a deterministic results table first — node counts, lengths, success
// rates are machine-independent, which is how the paper's efficiency claims
// are meaningfully checked 40 years later — then runs google-benchmark
// timings for the wall-clock side of each claim.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/gridless_router.hpp"
#include "core/steiner.hpp"
#include "io/text_format.hpp"
#include "layout/layout.hpp"
#include "spatial/escape_lines.hpp"
#include "spatial/obstacle_index.hpp"
#include "workload/floorplan.hpp"
#include "workload/netgen.hpp"

namespace gcr::bench {

/// A layout with its routing acceleration structures built.
struct World {
  layout::Layout lay;
  spatial::ObstacleIndex index;
  spatial::EscapeLineSet lines;

  explicit World(layout::Layout l)
      : lay(std::move(l)), index(lay.boundary(), lay.obstacles()), lines(index) {}
};

/// Standard random workload: `cells` macros in a `extent`^2 region with pins
/// and `nets` nets.
inline layout::Layout make_workload(std::size_t cells, geom::Coord extent,
                                    std::size_t nets, std::uint64_t seed) {
  return workload::standard_workload(cells, extent, nets, seed);
}

/// A 640^2 make_workload layout as LOAD body text.
inline std::string workload_text(std::size_t cells, std::size_t nets,
                                 std::uint64_t seed) {
  return io::write_layout_string(make_workload(cells, 640, nets, seed));
}

/// Random routable point pairs for two-pin queries, reproducible by seed.
inline std::vector<std::pair<geom::Point, geom::Point>> random_queries(
    const World& w, std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<geom::Coord> cx(w.lay.boundary().xlo,
                                                w.lay.boundary().xhi);
  std::uniform_int_distribution<geom::Coord> cy(w.lay.boundary().ylo,
                                                w.lay.boundary().yhi);
  const auto free_point = [&] {
    for (;;) {
      const geom::Point p{cx(rng), cy(rng)};
      if (w.index.routable(p)) return p;
    }
  };
  std::vector<std::pair<geom::Point, geom::Point>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.emplace_back(free_point(), free_point());
  }
  return out;
}

inline void rule(char c = '-', int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

/// Runs the deterministic table printer, then google-benchmark.
#define GCR_BENCH_MAIN(print_table)                   \
  int main(int argc, char** argv) {                   \
    print_table();                                    \
    ::benchmark::Initialize(&argc, argv);             \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();            \
    ::benchmark::Shutdown();                          \
    return 0;                                         \
  }

}  // namespace gcr::bench
