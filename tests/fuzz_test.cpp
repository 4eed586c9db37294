// Brute-force cross-validation ("fuzz") tests: the optimized spatial
// structures must agree with naive reference implementations on thousands
// of randomized queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "crossings.hpp"
#include "fuzz_env.hpp"
#include "spatial/escape_lines.hpp"
#include "spatial/obstacle_index.hpp"
#include "workload/floorplan.hpp"

namespace {

using namespace gcr;
using geom::Axis;
using geom::Coord;
using geom::Dir;
using geom::Point;
using geom::Rect;
using geom::Segment;

/// Naive reference ray trace: O(obstacles) scan, no tables.
spatial::RayHit naive_trace(const Rect& boundary,
                            const std::vector<Rect>& obstacles, const Point& p,
                            Dir d) {
  spatial::RayHit hit;
  switch (d) {
    case Dir::kEast: hit.stop = boundary.xhi; break;
    case Dir::kWest: hit.stop = boundary.xlo; break;
    case Dir::kNorth: hit.stop = boundary.yhi; break;
    case Dir::kSouth: hit.stop = boundary.ylo; break;
  }
  const Axis ax = axis_of(d);
  const Axis perp = other(ax);
  for (std::size_t i = 0; i < obstacles.size(); ++i) {
    const Rect& r = obstacles[i];
    if (!r.proper() || !r.span(perp).contains_open(p.along(perp))) continue;
    Coord edge = 0;
    switch (d) {
      case Dir::kEast: edge = r.xlo; break;
      case Dir::kWest: edge = r.xhi; break;
      case Dir::kNorth: edge = r.ylo; break;
      case Dir::kSouth: edge = r.yhi; break;
    }
    const int sgn = sign_of(d);
    if (sgn * edge < sgn * p.along(ax)) continue;  // behind the origin
    if (sgn * edge < sgn * hit.stop) {
      hit.stop = edge;
      hit.obstacle = i;
    }
  }
  const int sgn = sign_of(d);
  if (sgn > 0) {
    hit.stop = std::max(hit.stop, p.along(ax));
  } else {
    hit.stop = std::min(hit.stop, p.along(ax));
  }
  return hit;
}

class SpatialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpatialFuzz, TraceMatchesNaiveReference) {
  workload::FloorplanOptions fp;
  fp.seed = GetParam();
  fp.cell_count = 20;
  fp.boundary = Rect{0, 0, 400, 400};
  const layout::Layout lay = workload::random_floorplan(fp);
  const auto obstacles = lay.obstacles();
  const spatial::ObstacleIndex index(lay.boundary(), obstacles);

  std::mt19937_64 rng(GetParam() * 7919 + 3);
  std::uniform_int_distribution<Coord> c(0, 400);
  for (int q = 0; q < gcr::test::fuzz_iters(500); ++q) {
    const Point p{c(rng), c(rng)};
    if (!index.routable(p)) continue;
    for (const Dir d : geom::kAllDirs) {
      const auto fast = index.trace(p, d);
      const auto slow = naive_trace(lay.boundary(), obstacles, p, d);
      ASSERT_EQ(fast.stop, slow.stop)
          << "seed " << GetParam() << " p=" << p << " dir "
          << static_cast<int>(d);
      // The blocking obstacle may differ when several share an edge
      // coordinate, but blocked-ness must agree.
      EXPECT_EQ(fast.obstacle.has_value(), slow.obstacle.has_value());
    }
  }
}

TEST_P(SpatialFuzz, SegmentBlockedMatchesPointScan) {
  workload::FloorplanOptions fp;
  fp.seed = GetParam() + 100;
  fp.cell_count = 12;
  fp.boundary = Rect{0, 0, 200, 200};
  const layout::Layout lay = workload::random_floorplan(fp);
  const spatial::ObstacleIndex index(lay.boundary(), lay.obstacles());

  std::mt19937_64 rng(GetParam() * 31 + 17);
  std::uniform_int_distribution<Coord> c(0, 200);
  for (int q = 0; q < gcr::test::fuzz_iters(200); ++q) {
    Point a{c(rng), c(rng)};
    Point b = (q % 2 == 0) ? Point{c(rng), a.y} : Point{a.x, c(rng)};
    const Segment s{a, b};
    // Reference: a segment is blocked iff some strictly-interior point of
    // it is interior to an obstacle.  Integer sampling misses sub-DBU
    // sliver overlaps, so sample the segment at doubled coordinates (every
    // half-DBU of the original geometry).
    std::vector<Rect> scaled;
    for (const Rect& r : lay.obstacles()) {
      scaled.push_back(Rect{2 * r.xlo, 2 * r.ylo, 2 * r.xhi, 2 * r.yhi});
    }
    const auto interior2x = [&scaled](const Point& p) {
      return std::any_of(scaled.begin(), scaled.end(),
                         [&p](const Rect& r) { return r.contains_open(p); });
    };
    bool blocked = false;
    const Axis ax = s.axis();
    const Point a2{2 * a.x, 2 * a.y};
    for (Coord v = 2 * s.span().lo + 1; v < 2 * s.span().hi && !blocked; ++v) {
      Point p = a2;
      p.along(ax) = v;
      blocked = interior2x(p);
    }
    // Degenerate segments: interior point is the point itself.
    if (s.degenerate()) blocked = index.interior(a);
    EXPECT_EQ(index.segment_blocked(s), blocked)
        << "seed " << GetParam() << " " << s;
  }
}

TEST_P(SpatialFuzz, EscapeLinesAreFreeAndMaximal) {
  workload::FloorplanOptions fp;
  fp.seed = GetParam() + 200;
  fp.cell_count = 16;
  fp.boundary = Rect{0, 0, 300, 300};
  const layout::Layout lay = workload::random_floorplan(fp);
  const spatial::ObstacleIndex index(lay.boundary(), lay.obstacles());
  const spatial::EscapeLineSet lines(index);

  for (const spatial::EscapeLine& ln : lines.lines()) {
    // Free: the line segment never pierces an obstacle.
    const Segment seg =
        ln.axis == Axis::kX
            ? Segment{Point{ln.span.lo, ln.track}, Point{ln.span.hi, ln.track}}
            : Segment{Point{ln.track, ln.span.lo}, Point{ln.track, ln.span.hi}};
    EXPECT_FALSE(index.segment_blocked(seg)) << seg;
    // Maximal: extending one DBU beyond either end leaves the boundary or
    // enters an obstacle (only checked for obstacle-sourced lines; the
    // four boundary lines are maximal by construction).
    if (ln.source == spatial::EscapeLine::npos) continue;
    for (const int end : {0, 1}) {
      Point tip = end == 0 ? seg.a : seg.b;
      const Dir out_dir =
          ln.axis == Axis::kX ? (end == 0 ? Dir::kWest : Dir::kEast)
                              : (end == 0 ? Dir::kSouth : Dir::kNorth);
      const Point beyond = tip.stepped(out_dir, 1);
      EXPECT_FALSE(index.routable(beyond))
          << "line " << seg << " extends past " << tip;
    }
  }
}

TEST_P(SpatialFuzz, CrossingsMatchNaiveFilter) {
  workload::FloorplanOptions fp;
  fp.seed = GetParam() + 300;
  fp.cell_count = 10;
  fp.boundary = Rect{0, 0, 250, 250};
  const layout::Layout lay = workload::random_floorplan(fp);
  spatial::ObstacleIndex index(lay.boundary(), lay.obstacles());
  spatial::EscapeLineSet lines(index);

  std::mt19937_64 rng(GetParam() * 101 + 9);
  std::uniform_int_distribution<Coord> c(0, 250);
  // The buffer form appends: whatever the caller already holds stays put,
  // and a held value equal to the first crossing (0, the west and south
  // boundary lines) must not swallow it as a duplicate.
  const std::vector<Coord> prefix{-7, 300, 0};
  std::vector<Coord> buf;
  const auto check_queries = [&](int queries) {
    for (int q = 0; q < queries; ++q) {
      const Point p{c(rng), c(rng)};
      if (!index.routable(p)) continue;
      for (const Axis ax : {Axis::kX, Axis::kY}) {
        // The free run through p, as the router's memo records it.
        const Dir fwd = ax == Axis::kX ? Dir::kEast : Dir::kNorth;
        const Dir back = ax == Axis::kX ? Dir::kWest : Dir::kSouth;
        const Coord lo = index.trace(p, back).stop;
        const Coord hi = index.trace(p, fwd).stop;
        const Coord off = p.along(other(ax));
        buf = prefix;
        lines.crossings_in(ax, off, lo, hi, buf);
        ASSERT_GE(buf.size(), prefix.size());
        EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), buf.begin()))
            << "seed " << GetParam() << " p=" << p;
        const std::vector<Coord> fast(
            buf.begin() + static_cast<std::ptrdiff_t>(prefix.size()),
            buf.end());
        // Naive: scan every live line.
        std::vector<Coord> slow;
        for (const auto& ln : lines.lines()) {
          if (ln.dead || ln.axis == ax) continue;
          if (ln.track < lo || ln.track > hi) continue;
          if (!ln.span.contains(off)) continue;
          slow.push_back(ln.track);
        }
        std::sort(slow.begin(), slow.end());
        slow.erase(std::unique(slow.begin(), slow.end()), slow.end());
        EXPECT_EQ(fast, slow) << "seed " << GetParam() << " p=" << p;
        // The two rays from p read their halves of the run's crossings.
        const Coord origin = p.along(ax);
        std::vector<Coord> ahead(
            std::upper_bound(fast.begin(), fast.end(), origin), fast.end());
        EXPECT_EQ(ahead, test::crossings(lines, p, fwd, hi))
            << "seed " << GetParam() << " p=" << p;
        std::vector<Coord> behind(
            fast.begin(), std::lower_bound(fast.begin(), fast.end(), origin));
        std::reverse(behind.begin(), behind.end());
        EXPECT_EQ(behind, test::crossings(lines, p, back, lo))
            << "seed " << GetParam() << " p=" << p;
      }
    }
  };
  check_queries(gcr::test::fuzz_iters(100));

  // Incremental updates on the same set: new obstacles snapped to existing
  // edge coordinates (coincident tracks, duplicate records) and removals
  // (dead slots that must never be crossed).
  std::uniform_int_distribution<Coord> extent(3, 40);
  const auto some_edge = [&] {
    const auto& ln = lines.lines()[rng() % lines.lines().size()];
    return ln.track;
  };
  for (int step = 0; step < 12; ++step) {
    if (step % 3 == 2) {
      std::vector<std::size_t> live;
      for (std::size_t i = 0; i < index.size(); ++i) {
        if (index.alive(i)) live.push_back(i);
      }
      if (live.empty()) continue;
      const std::size_t victim = live[rng() % live.size()];
      ASSERT_TRUE(index.remove(victim));
      lines.remove_obstacle(index, victim);
    } else {
      const Coord x = rng() % 2 == 0 ? some_edge() : c(rng);
      const Coord y = rng() % 2 == 0 ? some_edge() : c(rng);
      index.insert(Rect{x, y, x + extent(rng), y + extent(rng)});
      lines.insert_obstacle(index, index.size() - 1);
    }
    check_queries(gcr::test::fuzz_iters(100) / 4 + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SpatialFuzz,
    ::testing::ValuesIn(gcr::test::fuzz_seeds(1, 1, 5)));

}  // namespace
