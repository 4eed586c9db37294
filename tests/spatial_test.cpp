// Unit tests for the spatial substrate: ray tracing against obstacle edges
// and escape-line extraction/crossing queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "crossings.hpp"
#include "spatial/escape_lines.hpp"
#include "spatial/obstacle_index.hpp"

namespace {

using namespace gcr;
using geom::Axis;
using geom::Dir;
using geom::Interval;
using geom::Point;
using geom::Rect;

spatial::ObstacleIndex one_block() {
  return spatial::ObstacleIndex(Rect{0, 0, 100, 100}, {Rect{40, 40, 60, 60}});
}

TEST(ObstacleIndex, RoutabilityRespectsOpenInteriors) {
  const auto idx = one_block();
  EXPECT_TRUE(idx.routable(Point{0, 0}));
  EXPECT_TRUE(idx.routable(Point{40, 50}));   // on the boundary: legal hug
  EXPECT_TRUE(idx.routable(Point{40, 40}));   // corner
  EXPECT_FALSE(idx.routable(Point{50, 50}));  // strictly inside
  EXPECT_FALSE(idx.routable(Point{101, 0}));  // outside the region
}

TEST(ObstacleIndex, RayStopsAtFirstObstacle) {
  const auto idx = one_block();
  const auto hit = idx.trace(Point{10, 50}, Dir::kEast);
  EXPECT_EQ(hit.stop, 40);
  ASSERT_TRUE(hit.obstacle.has_value());
  EXPECT_EQ(*hit.obstacle, 0u);
}

TEST(ObstacleIndex, RayReachesBoundaryWhenClear) {
  const auto idx = one_block();
  // y = 40 grazes the block's bottom edge: the edge line is routable, so the
  // ray passes all the way to the boundary.
  const auto hit = idx.trace(Point{10, 40}, Dir::kEast);
  EXPECT_EQ(hit.stop, 100);
  EXPECT_FALSE(hit.obstacle.has_value());
}

TEST(ObstacleIndex, RayFromHugPositionHasZeroExtent) {
  const auto idx = one_block();
  const auto hit = idx.trace(Point{40, 50}, Dir::kEast);
  EXPECT_EQ(hit.stop, 40);
  ASSERT_TRUE(hit.obstacle.has_value());
}

TEST(ObstacleIndex, AllFourDirections) {
  const auto idx = one_block();
  EXPECT_EQ(idx.trace(Point{50, 10}, Dir::kNorth).stop, 40);
  EXPECT_EQ(idx.trace(Point{50, 90}, Dir::kSouth).stop, 60);
  EXPECT_EQ(idx.trace(Point{90, 50}, Dir::kWest).stop, 60);
  EXPECT_EQ(idx.trace(Point{50, 70}, Dir::kNorth).stop, 100);
}

TEST(ObstacleIndex, NearestOfSeveralObstaclesWins) {
  const spatial::ObstacleIndex idx(
      Rect{0, 0, 200, 100},
      {Rect{50, 20, 70, 80}, Rect{120, 20, 140, 80}, Rect{30, 90, 40, 95}});
  const auto hit = idx.trace(Point{0, 50}, Dir::kEast);
  EXPECT_EQ(hit.stop, 50);
  EXPECT_EQ(*hit.obstacle, 0u);
  const auto hit2 = idx.trace(Point{200, 50}, Dir::kWest);
  EXPECT_EQ(hit2.stop, 140);
  EXPECT_EQ(*hit2.obstacle, 1u);
}

TEST(ObstacleIndex, SegmentBlockedMatchesPierces) {
  const auto idx = one_block();
  EXPECT_TRUE(idx.segment_blocked(
      geom::Segment{Point{0, 50}, Point{100, 50}}));
  EXPECT_FALSE(idx.segment_blocked(
      geom::Segment{Point{0, 40}, Point{100, 40}}));  // hugging
  EXPECT_FALSE(idx.segment_blocked(
      geom::Segment{Point{0, 10}, Point{100, 10}}));
}

TEST(ObstacleIndex, ZeroAreaObstacleBlocksNothing) {
  // A wire halo of 0 commits a zero-width rectangle: all boundary, no
  // interior.  Tracing, routability, segment blocking and the free-space
  // labels must all treat it as free space.
  const spatial::ObstacleIndex idx(Rect{0, 0, 10, 10},
                                   {Rect{5, 0, 5, 10}, Rect{2, 7, 8, 7}});
  const auto east = idx.trace(Point{0, 5}, Dir::kEast);
  EXPECT_EQ(east.stop, 10);
  EXPECT_FALSE(east.obstacle.has_value());
  const auto north = idx.trace(Point{4, 0}, Dir::kNorth);
  EXPECT_EQ(north.stop, 10);
  EXPECT_FALSE(north.obstacle.has_value());
  EXPECT_TRUE(idx.routable(Point{5, 5}));
  EXPECT_TRUE(idx.routable(Point{6, 5}));
  EXPECT_FALSE(idx.segment_blocked(geom::Segment{Point{0, 5}, Point{10, 5}}));
  EXPECT_FALSE(idx.segment_blocked(geom::Segment{Point{4, 0}, Point{4, 10}}));
  const auto& labels = idx.components();
  EXPECT_NE(labels.label(Point{0, 5}), spatial::FreeSpaceComponents::kNone);
  EXPECT_EQ(labels.label(Point{0, 5}), labels.label(Point{6, 5}));
  EXPECT_EQ(labels.label(Point{4, 0}), labels.label(Point{4, 10}));

  spatial::ObstacleIndex grown(Rect{0, 0, 10, 10}, {});
  grown.insert(Rect{5, 0, 5, 10});
  EXPECT_EQ(grown.trace(Point{0, 5}, Dir::kEast).stop, 10);
}

TEST(ObstacleIndex, OnBoundaryIgnoresRemovedObstacles) {
  // A ripped-up halo's rim is no longer a hugging point: the tombstoned
  // index answers like one rebuilt without it, before and after compact.
  spatial::ObstacleIndex idx(Rect{0, 0, 100, 100},
                             {Rect{40, 40, 60, 60}, Rect{10, 10, 20, 20}});
  ASSERT_TRUE(idx.on_boundary(Point{40, 50}));
  ASSERT_TRUE(idx.remove(0));
  const spatial::ObstacleIndex rebuilt(Rect{0, 0, 100, 100},
                                       {Rect{10, 10, 20, 20}});
  for (const Point p : {Point{40, 50}, Point{60, 60}, Point{50, 50},
                        Point{10, 15}, Point{20, 20}, Point{15, 15}}) {
    EXPECT_EQ(idx.on_boundary(p), rebuilt.on_boundary(p)) << p;
  }
  EXPECT_FALSE(idx.on_boundary(Point{40, 50}));
  EXPECT_TRUE(idx.on_boundary(Point{10, 15}));
  idx.compact();
  for (const Point p : {Point{40, 50}, Point{60, 60}, Point{10, 15},
                        Point{20, 20}, Point{15, 15}}) {
    EXPECT_EQ(idx.on_boundary(p), rebuilt.on_boundary(p)) << p;
  }
}

TEST(ObstacleIndex, OnBoundaryMatchesLinearScanOverLiveObstacles) {
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<geom::Coord> pos(-8, 136);
  std::uniform_int_distribution<geom::Coord> len(0, 32);
  for (int round = 0; round < 20; ++round) {
    // Rects may overlap and protrude past the boundary, like wire halos.
    std::vector<Rect> rects;
    for (int i = 0; i < 24; ++i) {
      const geom::Coord x = pos(rng), y = pos(rng);
      rects.push_back(Rect{x, y, x + len(rng), y + len(rng)});
    }
    spatial::ObstacleIndex idx(Rect{0, 0, 128, 128}, rects);
    for (int i = 0; i < 8; ++i) {
      idx.insert(Rect{Point{pos(rng), pos(rng)}, Point{pos(rng), pos(rng)}});
    }
    for (std::size_t i = 0; i < idx.size(); i += 3) idx.remove(i);
    if (round % 2 == 1) idx.compact();
    for (int q = 0; q < 400; ++q) {
      // Snap half the queries onto an obstacle edge so hits are common.
      Point p{pos(rng), pos(rng)};
      const Rect& r = idx.obstacles()[static_cast<std::size_t>(q) %
                                      idx.size()];
      if (q % 2 == 0) p.x = q % 4 == 0 ? r.xlo : r.xhi;
      bool want = false;
      for (std::size_t i = 0; i < idx.size(); ++i) {
        if (idx.alive(i) && idx.obstacles()[i].on_boundary(p)) want = true;
      }
      EXPECT_EQ(idx.on_boundary(p), want) << p << " round " << round;
    }
  }
}

TEST(ObstacleIndex, QueryFindsIntersectingObstacles) {
  const spatial::ObstacleIndex idx(
      Rect{0, 0, 200, 100},
      {Rect{50, 20, 70, 80}, Rect{120, 20, 140, 80}});
  EXPECT_EQ(idx.query(Rect{0, 0, 60, 100}).size(), 1u);
  EXPECT_EQ(idx.query(Rect{0, 0, 200, 100}).size(), 2u);
  EXPECT_TRUE(idx.query(Rect{80, 0, 110, 100}).empty());
}

// ------------------------------------------------------------ EscapeLines

TEST(EscapeLines, OneBlockProducesEdgeAndBoundaryLines) {
  const auto idx = one_block();
  const spatial::EscapeLineSet lines(idx);
  // 4 boundary lines + 4 obstacle edge lines.
  EXPECT_EQ(lines.lines().size(), 8u);

  // The vertical line through the block's left edge spans the full layout:
  // the extensions beyond the corners are unobstructed.
  const auto it = std::find_if(
      lines.lines().begin(), lines.lines().end(), [](const auto& ln) {
        return ln.axis == Axis::kY && ln.track == 40 && ln.source == 0u;
      });
  ASSERT_NE(it, lines.lines().end());
  EXPECT_EQ(it->span, (Interval{0, 100}));
}

TEST(EscapeLines, ExtensionStopsAtBlockingNeighbor) {
  // Second block directly above the first: the first block's left-edge line
  // must stop at the neighbor's bottom edge.
  const spatial::ObstacleIndex idx(
      Rect{0, 0, 100, 100},
      {Rect{40, 40, 60, 60}, Rect{30, 80, 70, 95}});
  const spatial::EscapeLineSet lines(idx);
  const auto it = std::find_if(
      lines.lines().begin(), lines.lines().end(), [](const auto& ln) {
        return ln.axis == Axis::kY && ln.track == 40 && ln.source == 0u;
      });
  ASSERT_NE(it, lines.lines().end());
  EXPECT_EQ(it->span, (Interval{0, 80}));
}

TEST(EscapeLines, CrossingsAlongARay) {
  const auto idx = one_block();
  const spatial::EscapeLineSet lines(idx);
  // A horizontal probe at y=10 over x in [5, 100] crosses the vertical
  // lines x=40 and x=60 (edge lines span the whole layout here) and the
  // boundary line x=100.
  const auto xs = test::crossings_in(lines, Axis::kX, 10, 5, 100);
  EXPECT_EQ(xs, (std::vector<geom::Coord>{40, 60, 100}));
}

TEST(EscapeLines, CrossingsRespectSpanContainment) {
  // Neighbor above shortens the left-edge line; a ray passing below still
  // crosses it, a ray passing above does not.
  const spatial::ObstacleIndex idx(
      Rect{0, 0, 100, 100},
      {Rect{40, 40, 60, 60}, Rect{30, 80, 70, 95}});
  const spatial::EscapeLineSet lines(idx);
  const auto below = test::crossings_in(lines, Axis::kX, 10, 5, 100);
  EXPECT_TRUE(std::count(below.begin(), below.end(), 40) == 1);
  const auto above = test::crossings_in(lines, Axis::kX, 97, 5, 100);
  EXPECT_TRUE(std::count(above.begin(), above.end(), 40) == 0);
  // x=30/70 (the neighbor's edges) do span y=97.
  EXPECT_TRUE(std::count(above.begin(), above.end(), 30) == 1);
}

TEST(EscapeLines, CrossingsInAreClosedAndAscending) {
  const auto idx = one_block();
  const spatial::EscapeLineSet lines(idx);
  // Ascending whatever way a ray would travel, both ends included.
  EXPECT_EQ(test::crossings_in(lines, Axis::kX, 10, 0, 95),
            (std::vector<geom::Coord>{0, 40, 60}));
  EXPECT_EQ(test::crossings_in(lines, Axis::kX, 10, 40, 100),
            (std::vector<geom::Coord>{40, 60, 100}));
  // A one-point range answers whether a line crosses there.
  EXPECT_EQ(test::crossings_in(lines, Axis::kY, 60, 40, 40),
            (std::vector<geom::Coord>{40}));
  EXPECT_TRUE(test::crossings_in(lines, Axis::kY, 60, 41, 59).empty());
}

TEST(EscapeLines, DirectionalOracleExcludesOriginAndOrdersByTravel) {
  const auto idx = one_block();
  const spatial::EscapeLineSet lines(idx);
  // Westward ray: descending coordinates.
  const auto xs = test::crossings(lines, Point{95, 10}, Dir::kWest, 0);
  EXPECT_EQ(xs, (std::vector<geom::Coord>{60, 40, 0}));
  // A ray starting exactly on a line does not re-emit its own track.
  const auto from_edge = test::crossings(lines, Point{40, 10}, Dir::kEast, 100);
  EXPECT_EQ(from_edge, (std::vector<geom::Coord>{60, 100}));
}

TEST(EscapeLines, CoincidentEdgesKeepPerSourceRecords) {
  // Two blocks sharing the same left-edge x coordinate keep one line record
  // *each*: the spans coincide today, but a later incremental insert between
  // the blocks must be able to clip them independently (a merged record
  // could not be split back apart).  `crossings_in` deduplicates tracks,
  // so the duplicate records never change routing behavior.
  const spatial::ObstacleIndex idx(
      Rect{0, 0, 100, 100},
      {Rect{40, 10, 60, 20}, Rect{40, 70, 60, 90}});
  const spatial::EscapeLineSet lines(idx);
  const auto count = std::count_if(
      lines.lines().begin(), lines.lines().end(), [](const auto& ln) {
        return ln.axis == Axis::kY && ln.track == 40 &&
               ln.span == Interval{0, 100};
      });
  EXPECT_EQ(count, 2);
  const auto xs = test::crossings_in(lines, Axis::kX, 50, 5, 100);
  EXPECT_EQ(std::count(xs.begin(), xs.end(), 40), 1);  // deduplicated
}

TEST(EscapeLines, IncrementalInsertSplitsCoincidentCorridors) {
  // The un-merge scenario: both aligned blocks span x=40 with corridor
  // [0,100]; a new obstacle landing *between* them must split the corridor
  // into a per-source lower part ([0,40], block 0's) and upper part
  // ([50,100], block 1's) — exactly what a from-scratch build produces.
  spatial::ObstacleIndex idx(
      Rect{0, 0, 100, 100},
      {Rect{40, 10, 60, 20}, Rect{40, 70, 60, 90}});
  spatial::EscapeLineSet lines(idx);

  const Rect blocker{30, 40, 70, 50};
  idx.insert(blocker);
  lines.insert_obstacle(idx, 2);

  const spatial::ObstacleIndex fresh(
      Rect{0, 0, 100, 100},
      {Rect{40, 10, 60, 20}, Rect{40, 70, 60, 90}, blocker});
  const spatial::EscapeLineSet fresh_lines(fresh);

  const auto span_at_40 = [](const spatial::EscapeLineSet& ls,
                             std::size_t source) {
    const auto it = std::find_if(
        ls.lines().begin(), ls.lines().end(), [source](const auto& ln) {
          return ln.axis == Axis::kY && ln.track == 40 && ln.source == source;
        });
    return it == ls.lines().end() ? Interval{} : it->span;
  };
  EXPECT_EQ(span_at_40(lines, 0), (Interval{0, 40}));
  EXPECT_EQ(span_at_40(lines, 1), (Interval{50, 100}));
  EXPECT_EQ(span_at_40(lines, 0), span_at_40(fresh_lines, 0));
  EXPECT_EQ(span_at_40(lines, 1), span_at_40(fresh_lines, 1));

  // Crossing queries agree with the from-scratch build on both sides.
  for (const geom::Coord y : {15, 45, 75}) {
    EXPECT_EQ(test::crossings_in(lines, Axis::kX, y, 5, 100),
              test::crossings_in(fresh_lines, Axis::kX, y, 5, 100))
        << "y=" << y;
  }
}

}  // namespace
