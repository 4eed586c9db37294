// Tests for the paper's core contribution: the gridless line-search router.
// Covers straight/L routes, obstacle hugging, optimality against the
// track-graph oracle and the unit-pitch grid, multi-source/target searches,
// and the generalized cost models (bend, inverted corner, region penalty).

#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "core/gridless_router.hpp"
#include "core/track_graph.hpp"
#include "grid/lee_moore.hpp"
#include "workload/figures.hpp"

namespace {

using namespace gcr;
using geom::Point;
using geom::Rect;
using route::kCostScale;

struct Fixture {
  spatial::ObstacleIndex index;
  spatial::EscapeLineSet lines;

  Fixture(Rect boundary, std::vector<Rect> obstacles)
      : index(boundary, std::move(obstacles)), lines(index) {}

  [[nodiscard]] route::Route go(Point a, Point b,
                                const route::CostModel* cost = nullptr) const {
    const route::GridlessRouter router(index, lines, cost);
    return router.route(a, b);
  }
};

TEST(GridlessRouter, EmptyPlaneStraightLine) {
  const Fixture f(Rect{0, 0, 100, 100}, {});
  const auto r = f.go({10, 20}, {90, 20});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.length, 80);
  EXPECT_EQ(r.cost, 80 * kCostScale);
  EXPECT_EQ(r.points.size(), 2u);  // no bends
  EXPECT_EQ(r.bend_count(), 0u);
}

TEST(GridlessRouter, EmptyPlaneLRoute) {
  const Fixture f(Rect{0, 0, 100, 100}, {});
  const auto r = f.go({10, 10}, {60, 70});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.length, 50 + 60);
  EXPECT_EQ(r.bend_count(), 1u);
}

TEST(GridlessRouter, DetoursAroundBlock) {
  // Block straddles the straight line; optimum detours around the nearer
  // edge: from (10,50) to (90,50) around (40,30..70): extra 2*min(20,20)=40?
  // Actually around the bottom: up/down 20 twice -> length 80+40.
  const Fixture f(Rect{0, 0, 100, 100}, {Rect{40, 30, 60, 70}});
  const auto r = f.go({10, 50}, {90, 50});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.length, 80 + 2 * 20);
  // Every point of the path must be routable and every segment unblocked.
  for (const auto& seg : r.segments()) {
    EXPECT_FALSE(f.index.segment_blocked(seg)) << seg;
  }
}

TEST(GridlessRouter, HugsBoundaryWhenFasterAround) {
  // Block nearly spanning the height: the route must squeeze along the
  // layout boundary edge (hugging is legal).
  const Fixture f(Rect{0, 0, 100, 100}, {Rect{40, 0, 60, 98}});
  const auto r = f.go({10, 50}, {90, 50});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.length, 80 + 2 * 48);  // over the top at y=98..? via y=98
  for (const auto& seg : r.segments()) {
    EXPECT_FALSE(f.index.segment_blocked(seg));
  }
}

TEST(GridlessRouter, EndpointsOnObstacleBoundary) {
  // Pins sit on the block's edges, as real macro pins do.
  const Fixture f(Rect{0, 0, 100, 100}, {Rect{40, 40, 60, 60}});
  const auto r = f.go({40, 50}, {60, 50});  // west edge pin to east edge pin
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.length, 20 + 2 * 10);  // around the top or bottom corner
}

TEST(GridlessRouter, SameStartAndGoal) {
  const Fixture f(Rect{0, 0, 100, 100}, {});
  const auto r = f.go({10, 10}, {10, 10});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.length, 0);
}

TEST(GridlessRouter, GoalOnSharedLine) {
  const Fixture f(Rect{0, 0, 100, 100}, {Rect{40, 40, 60, 60}});
  // Goal aligned with source on a clear line.
  const auto r = f.go({40, 20}, {60, 20});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.length, 20);
  EXPECT_EQ(r.bend_count(), 0u);
}

TEST(GridlessRouter, MultiSourceMultiTargetPicksNearestPair) {
  const Fixture f(Rect{0, 0, 100, 100}, {});
  const route::GridlessRouter router(f.index, f.lines);
  const auto r = router.route_set({{10, 10}, {50, 50}}, {{55, 55}, {90, 90}});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.length, 10);  // (50,50) -> (55,55)
  EXPECT_EQ(r.points.front(), (Point{50, 50}));
  EXPECT_EQ(r.points.back(), (Point{55, 55}));
}

TEST(GridlessRouter, WalledInGoalFailsWithoutSearch) {
  // Four blocks ring the goal (the paper's "avoiding nets" case: halos of
  // committed wires closing a pocket).  The free-space labels prove it
  // unreachable, so the router skips the exhaustive search.
  const Fixture f(Rect{0, 0, 100, 100},
                  {Rect{30, 30, 70, 40}, Rect{30, 60, 70, 70},
                   Rect{30, 35, 40, 65}, Rect{60, 35, 70, 65}});
  const auto walled = f.go({10, 10}, {50, 50});
  EXPECT_FALSE(walled.found);
  EXPECT_EQ(walled.stats.proved_unreachable, 1u);
  EXPECT_EQ(walled.stats.nodes_expanded, 0u);
  EXPECT_EQ(walled.stats.nodes_generated, 0u);

  // A goal on the ring's outer rim is reachable: searched, not skipped.
  const auto rim = f.go({10, 10}, {50, 70});
  ASSERT_TRUE(rim.found);
  EXPECT_EQ(rim.stats.proved_unreachable, 0u);
  EXPECT_GT(rim.stats.nodes_expanded, 0u);

  // The counter sums like the others.
  search::SearchStats total = walled.stats;
  total += rim.stats;
  total += walled.stats;
  EXPECT_EQ(total.proved_unreachable, 2u);
}

TEST(GridlessRouter, ExpandsFarFewerNodesThanGrid) {
  const workload::PointQuery q = workload::figure1_layout();
  const spatial::ObstacleIndex index(q.layout.boundary(), q.layout.obstacles());
  const spatial::EscapeLineSet lines(index);
  const route::GridlessRouter router(index, lines);
  const auto r = router.route(q.s, q.d);
  ASSERT_TRUE(r.found);

  const grid::GridGraph gg(index, 1);
  const grid::LeeMooreRouter lee(gg);
  const auto lr = lee.route(q.s, q.d, search::Strategy::kBestFirst);
  ASSERT_TRUE(lr.found);
  EXPECT_EQ(lr.length, r.length);
  // The paper's headline: at least an order of magnitude fewer expansions.
  EXPECT_LT(r.stats.nodes_expanded * 10, lr.stats.nodes_expanded);
}

TEST(GridlessRouter, BlindStrategiesStillConnect) {
  const Fixture f(Rect{0, 0, 100, 100}, {Rect{40, 30, 60, 70}});
  const route::GridlessRouter router(f.index, f.lines);
  for (const auto strat :
       {search::Strategy::kDepthFirst, search::Strategy::kBreadthFirst,
        search::Strategy::kBestFirst, search::Strategy::kExhaustive}) {
    route::RouteOptions opts;
    opts.strategy = strat;
    opts.max_expansions = 200000;
    const auto r = router.route({10, 50}, {90, 50}, opts);
    ASSERT_TRUE(r.found) << to_string(strat);
    if (admissible(strat)) {
      EXPECT_EQ(r.length, 120) << to_string(strat);
    } else {
      EXPECT_GE(r.length, 120) << to_string(strat);
    }
    for (const auto& seg : r.segments()) {
      EXPECT_FALSE(f.index.segment_blocked(seg)) << to_string(strat);
    }
  }
}

// -------------------------------------------------------------- CostModel

TEST(CostModel, BendPenaltyPrefersFewerCorners) {
  const Fixture f(Rect{0, 0, 100, 100}, {});
  const route::BendCost bends(1);
  const auto r = f.go({10, 10}, {60, 70}, &bends);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.length, 110);
  EXPECT_EQ(r.bend_count(), 1u);  // exactly one corner, never a staircase
  EXPECT_EQ(r.cost, 110 * kCostScale + 1);
}

TEST(CostModel, InvertedCornerPrefersHuggingBend) {
  const workload::PointQuery q = workload::inverted_corner_layout();
  const spatial::ObstacleIndex index(q.layout.boundary(), q.layout.obstacles());
  const spatial::EscapeLineSet lines(index);

  const route::InvertedCornerCost eps(1);
  const route::GridlessRouter router(index, lines, &eps);
  const auto r = router.route(q.s, q.d);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.length, 80);
  // The preferred route bends exactly once, at the block corner (60,60).
  ASSERT_EQ(r.points.size(), 3u);
  EXPECT_EQ(r.points[1], (Point{60, 60}));
  EXPECT_EQ(r.cost, 80 * kCostScale);  // zero penalty: the hug bend is free
}

TEST(CostModel, InvertedCornerChargesFloatingBends) {
  // In an empty plane every bend floats, so any L-route costs epsilon.
  const Fixture f(Rect{0, 0, 100, 100}, {});
  const route::InvertedCornerCost eps(3);
  const auto r = f.go({10, 10}, {60, 70}, &eps);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cost, 110 * kCostScale + 3);
}

TEST(CostModel, RegionPenaltySteersAroundCongestion) {
  // Two corridors around a block; penalize the shorter one's region hard
  // enough that the router takes the longer corridor.
  const Fixture f(Rect{0, 0, 100, 100}, {Rect{40, 20, 60, 70}});
  // Unpenalized: prefer under the block (via y=20, detour 2*0? source at
  // y=10: under is closer).
  const auto base = f.go({10, 30}, {90, 30});
  ASSERT_TRUE(base.found);
  const geom::Cost base_len = base.length;

  route::RegionPenaltyCost penalty;
  penalty.add_region(Rect{40, 0, 60, 20}, 1000 * kCostScale);
  const auto steered = f.go({10, 30}, {90, 30}, &penalty);
  ASSERT_TRUE(steered.found);
  EXPECT_GT(steered.length, base_len);
  // The steered route must not touch the penalized region.
  for (const auto& seg : steered.segments()) {
    EXPECT_FALSE(seg.bounds().intersects(Rect{40, 0, 60, 20})) << seg;
  }
}

TEST(CostModel, HistoryCostArithmeticAndClamping) {
  const spatial::ObstacleIndex idx(Rect{0, 0, 100, 100}, {});
  route::HistoryCost cost(/*history_base=*/5);
  cost.add_region(Rect{40, 0, 60, 100}, /*present=*/7, /*history=*/3);
  // Negative inputs clamp to zero — penalties must never subtract, or the
  // Manhattan heuristic stops being a lower bound and A* loses optimality.
  cost.add_region(Rect{0, 90, 10, 100}, -4, -2);
  ASSERT_EQ(cost.regions().size(), 2u);
  EXPECT_EQ(cost.regions()[1].present, 0);
  EXPECT_EQ(cost.regions()[1].history, 0);

  // An edge through the first region: present*(1+h) + base*h = 7*4 + 5*3.
  const route::EdgeContext crossing{
      idx, {{30, 50}, route::kNoDir}, geom::Dir::kEast, {70, 50}};
  EXPECT_EQ(cost.penalty(crossing), 7 * (1 + 3) + 5 * 3);
  // An edge clear of both regions is free.
  const route::EdgeContext clear{
      idx, {{10, 20}, route::kNoDir}, geom::Dir::kEast, {30, 20}};
  EXPECT_EQ(cost.penalty(clear), 0);
  // The clamped region charges nothing even when crossed.
  const route::EdgeContext clamped{
      idx, {{5, 85}, route::kNoDir}, geom::Dir::kNorth, {5, 99}};
  EXPECT_EQ(cost.penalty(clamped), 0);
}

TEST(CostModel, HistoryCostSteersLikeNegotiatedCongestion) {
  // Same corridor setup as the RegionPenalty test: a strong present+history
  // charge on the short corridor must push the route the long way around,
  // and the route may never touch the charged region.
  const Fixture f(Rect{0, 0, 100, 100}, {Rect{40, 20, 60, 70}});
  const auto base = f.go({10, 30}, {90, 30});
  ASSERT_TRUE(base.found);

  route::HistoryCost cost(kCostScale);
  cost.add_region(Rect{40, 0, 60, 20}, 100 * kCostScale, 10);
  const auto steered = f.go({10, 30}, {90, 30}, &cost);
  ASSERT_TRUE(steered.found);
  EXPECT_GT(steered.length, base.length);
  for (const auto& seg : steered.segments()) {
    EXPECT_FALSE(seg.bounds().intersects(Rect{40, 0, 60, 20})) << seg;
  }
}

TEST(CostModel, CompositeSumsPenalties) {
  route::CompositeCost comp;
  EXPECT_TRUE(comp.empty());
  comp.add(std::make_shared<route::BendCost>(2));
  comp.add(std::make_shared<route::BendCost>(3));
  const Fixture f(Rect{0, 0, 100, 100}, {});
  const auto r = f.go({0, 0}, {10, 10}, &comp);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cost, 20 * kCostScale + 5);  // one bend, both models charge
}

TEST(CostModel, OnObstacleBoundaryHelper) {
  const spatial::ObstacleIndex idx(Rect{0, 0, 100, 100},
                                   {Rect{40, 40, 60, 60}});
  EXPECT_TRUE(idx.on_boundary(Point{40, 50}));
  EXPECT_TRUE(idx.on_boundary(Point{60, 60}));
  EXPECT_FALSE(idx.on_boundary(Point{50, 50}));  // interior
  EXPECT_FALSE(idx.on_boundary(Point{10, 10}));  // free
}

// -------------------------------------------------------------- TrackGraph

TEST(TrackGraph, OracleMatchesSimpleCases) {
  const Fixture f(Rect{0, 0, 100, 100}, {Rect{40, 30, 60, 70}});
  const route::TrackGraph oracle(f.index, f.lines);
  EXPECT_EQ(oracle.shortest_length({10, 50}, {90, 50}), 120);
  EXPECT_EQ(oracle.shortest_length({10, 10}, {90, 10}), 80);
  EXPECT_EQ(oracle.shortest_length({10, 10}, {10, 10}), 0);
}

TEST(TrackGraph, MaterializesManyMoreVerticesThanAStarExpands) {
  const workload::PointQuery q = workload::figure1_layout();
  const spatial::ObstacleIndex index(q.layout.boundary(), q.layout.obstacles());
  const spatial::EscapeLineSet lines(index);
  const route::TrackGraph oracle(index, lines);
  const route::GridlessRouter router(index, lines);
  const auto r = router.route(q.s, q.d);
  ASSERT_TRUE(r.found);
  EXPECT_GT(oracle.vertex_count(q.s, q.d), r.stats.nodes_expanded);
}

TEST(GridlessRouter, SparseSuccessorsNeverBeatFull) {
  // Ablation sanity: removing escape-line crossings can only lengthen (or
  // lose) routes, never shorten them — full mode is admissible.
  const workload::PointQuery q = workload::figure1_layout();
  const spatial::ObstacleIndex index(q.layout.boundary(), q.layout.obstacles());
  const spatial::EscapeLineSet lines(index);
  const route::GridlessRouter router(index, lines);
  const auto full = router.route(q.s, q.d);
  ASSERT_TRUE(full.found);
  route::RouteOptions sparse_opts;
  sparse_opts.successors = route::SuccessorMode::kSparse;
  sparse_opts.max_expansions = 50000;
  const auto sparse = router.route(q.s, q.d, sparse_opts);
  if (sparse.found) {
    EXPECT_GE(sparse.length, full.length);
    for (const auto& seg : sparse.segments()) {
      EXPECT_FALSE(index.segment_blocked(seg)) << seg;
    }
  }
}

TEST(GridlessRouter, SparseModeSolvesMazesSuboptimally) {
  const workload::PointQuery q = workload::spiral_maze(2);
  const spatial::ObstacleIndex index(q.layout.boundary(), q.layout.obstacles());
  const spatial::EscapeLineSet lines(index);
  const route::GridlessRouter router(index, lines);
  const auto full = router.route(q.s, q.d);
  ASSERT_TRUE(full.found);
  route::RouteOptions sparse_opts;
  sparse_opts.successors = route::SuccessorMode::kSparse;
  sparse_opts.max_expansions = 50000;
  const auto sparse = router.route(q.s, q.d, sparse_opts);
  if (sparse.found) {
    EXPECT_GE(sparse.length, full.length);
  }
}

TEST(PathHelpers, CompressMergesColinearRuns) {
  const std::vector<route::RouteState> states = {
      {{0, 0}, route::kNoDir}, {{5, 0}, 0}, {{9, 0}, 0},
      {{9, 4}, 2},             {{9, 9}, 2},
  };
  const auto pts = route::compress_path(states);
  EXPECT_EQ(pts, (std::vector<Point>{{0, 0}, {9, 0}, {9, 9}}));
  EXPECT_EQ(route::polyline_length(pts), 18);
}

}  // namespace
