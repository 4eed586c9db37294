// Tests for multi-terminal net construction: the paper's Steiner
// approximation (segments as connection points), multi-pin terminal
// grouping, and failure handling.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/steiner.hpp"
#include "core/track_graph.hpp"

namespace {

using namespace gcr;
using geom::Point;
using geom::Rect;
using geom::Segment;

struct Fixture {
  spatial::ObstacleIndex index;
  spatial::EscapeLineSet lines;
  route::SteinerNetRouter router;

  explicit Fixture(std::vector<Rect> obstacles = {},
                   Rect boundary = Rect{0, 0, 100, 100})
      : index(boundary, std::move(obstacles)),
        lines(index),
        router(index, lines) {}
};

geom::Cost tree_length(const route::NetRoute& nr) {
  geom::Cost len = 0;
  for (const Segment& s : nr.segments) len += s.length();
  return len;
}

TEST(Steiner, TwoTerminalNetIsPlainRoute) {
  const Fixture f;
  const auto nr = f.router.route_terminals({{{10, 10}}, {{60, 10}}});
  ASSERT_TRUE(nr.ok);
  EXPECT_EQ(nr.wirelength, 50);
  EXPECT_EQ(nr.connections.size(), 1u);
}

TEST(Steiner, ThreeTerminalSteinerBeatsStarTopology) {
  // T-shape: terminals at (10,50), (90,50), (50,10).  The Steiner tree
  // connects the third terminal to the *segment* joining the first two
  // (wirelength 80 + 40 = 120); a pins-only spanning tree needs 80 + 80.
  const Fixture f;
  const auto steiner =
      f.router.route_terminals({{{10, 50}}, {{90, 50}}, {{50, 10}}});
  ASSERT_TRUE(steiner.ok);
  EXPECT_EQ(steiner.wirelength, 120);

  route::SteinerOptions pins_only;
  pins_only.connect_to_segments = false;
  const auto spanning = f.router.route_terminals(
      {{{10, 50}}, {{90, 50}}, {{50, 10}}}, pins_only);
  ASSERT_TRUE(spanning.ok);
  EXPECT_EQ(spanning.wirelength, 160);
  EXPECT_LT(steiner.wirelength, spanning.wirelength);
}

TEST(Steiner, WirelengthMatchesSegmentSum) {
  const Fixture f;
  const auto nr = f.router.route_terminals(
      {{{10, 10}}, {{90, 20}}, {{40, 80}}, {{70, 60}}});
  ASSERT_TRUE(nr.ok);
  EXPECT_EQ(nr.wirelength, tree_length(nr));
}

TEST(Steiner, TreeTouchesEveryTerminal) {
  const Fixture f(std::vector<Rect>{{30, 30, 50, 70}});
  const std::vector<std::vector<Point>> terminals = {
      {{10, 10}}, {{90, 90}}, {{10, 90}}, {{90, 10}}};
  const auto nr = f.router.route_terminals(terminals);
  ASSERT_TRUE(nr.ok);
  for (const auto& pins : terminals) {
    const Point pin = pins[0];
    const bool touched =
        std::any_of(nr.segments.begin(), nr.segments.end(),
                    [&pin](const Segment& s) { return s.contains(pin); });
    EXPECT_TRUE(touched) << pin;
  }
}

TEST(Steiner, SegmentsAvoidObstacles) {
  const Fixture f(std::vector<Rect>{{30, 30, 50, 70}, {60, 10, 80, 40}});
  const auto nr = f.router.route_terminals(
      {{{10, 50}}, {{90, 50}}, {{55, 90}}, {{20, 5}}});
  ASSERT_TRUE(nr.ok);
  for (const Segment& s : nr.segments) {
    EXPECT_FALSE(f.index.segment_blocked(s)) << s;
  }
}

TEST(Steiner, MultiPinTerminalUsesClosestPin) {
  // Terminal B has pins on both sides of a wall; the router must connect to
  // the cheap (near) pin.
  const Fixture f(std::vector<Rect>{{40, 0, 60, 90}});
  const std::vector<std::vector<Point>> terminals = {
      {{10, 50}},                 // A: single pin, west of the wall
      {{40, 50}, {60, 50}},       // B: pins on the wall's west and east edges
  };
  const auto nr = f.router.route_terminals(terminals);
  ASSERT_TRUE(nr.ok);
  EXPECT_EQ(nr.wirelength, 30);  // straight to the west pin
}

TEST(Steiner, ConnectedPinsSeedLaterConnections) {
  // After a multi-pin terminal joins, its *other* pins become sources: the
  // third terminal (east of the wall) connects via B's east pin instead of
  // routing around the wall.
  const Fixture f(std::vector<Rect>{{40, 0, 60, 90}});
  const std::vector<std::vector<Point>> terminals = {
      {{10, 50}},
      {{40, 50}, {60, 50}},  // feed-through terminal
      {{90, 50}},
  };
  const auto nr = f.router.route_terminals(terminals);
  ASSERT_TRUE(nr.ok);
  // 30 (A to B west pin) + 30 (B east pin to C): the wall is never rounded.
  EXPECT_EQ(nr.wirelength, 60);
}

TEST(Steiner, SingleTerminalNetTrivialOk) {
  const Fixture f;
  const auto nr = f.router.route_terminals({{{10, 10}}});
  EXPECT_TRUE(nr.ok);
  EXPECT_TRUE(nr.segments.empty());
  EXPECT_EQ(nr.wirelength, 0);
}

TEST(Steiner, EmptyTerminalListNotOk) {
  const Fixture f;
  EXPECT_FALSE(f.router.route_terminals({}).ok);
  EXPECT_FALSE(f.router.route_terminals({{{10, 10}}, {}}).ok);
}

TEST(Steiner, PinInsideObstacleFailsWithoutSearch) {
  // A pin in an obstacle's interior — in sequential routing, one swallowed
  // by a committed wire halo — can be neither a source nor a goal, so the
  // net fails before any search, whichever terminal holds it.
  const Fixture f(std::vector<Rect>{{40, 40, 60, 60}});
  const std::vector<std::vector<std::vector<Point>>> nets = {
      {{{10, 10}}, {{50, 50}}},
      {{{50, 50}}, {{10, 10}}},
      {{{10, 10}, {50, 50}}, {{90, 90}}},
      {{{50, 50}}},
  };
  for (const auto& terminals : nets) {
    const auto nr = f.router.route_terminals(terminals);
    EXPECT_FALSE(nr.ok);
    EXPECT_TRUE(nr.segments.empty());
    EXPECT_EQ(nr.stats.nodes_expanded, 0u);
    EXPECT_EQ(nr.stats.nodes_generated, 0u);
  }
  // A pin on the obstacle's boundary stays routable.
  EXPECT_TRUE(f.router.route_terminals({{{10, 10}}, {{40, 50}}}).ok);
}

TEST(Steiner, StatsAccumulateAcrossConnections) {
  const Fixture f;
  const auto nr = f.router.route_terminals(
      {{{10, 10}}, {{90, 10}}, {{90, 90}}, {{10, 90}}});
  ASSERT_TRUE(nr.ok);
  EXPECT_EQ(nr.connections.size(), 3u);
  std::size_t total = 0;
  for (const auto& c : nr.connections) total += c.stats.nodes_expanded;
  EXPECT_EQ(nr.stats.nodes_expanded, total);
}

TEST(Steiner, RouteNetResolvesLayoutTerminals) {
  layout::Layout lay(Rect{0, 0, 100, 100});
  lay.set_min_separation(4);
  const auto a = lay.add_cell(layout::Cell{"a", Rect{10, 10, 30, 30}});
  const auto b = lay.add_cell(layout::Cell{"b", Rect{60, 60, 90, 90}});
  lay.cell(a).add_pin_terminal("p", Point{30, 20});
  lay.cell(b).add_pin_terminal("q", Point{60, 70});
  layout::Net net("n");
  EXPECT_FALSE(route::terminal_bbox(lay, net).has_value());
  net.add_terminal(layout::TerminalRef{a, 0});
  net.add_terminal(layout::TerminalRef{b, 0});
  const auto bbox = route::terminal_bbox(lay, net);
  ASSERT_TRUE(bbox.has_value());
  EXPECT_EQ(*bbox, (Rect{30, 20, 60, 70}));

  const spatial::ObstacleIndex index(lay.boundary(), lay.obstacles());
  const spatial::EscapeLineSet lines(index);
  const route::SteinerNetRouter router(index, lines);
  const auto nr = router.route_net(lay, net);
  ASSERT_TRUE(nr.ok);
  EXPECT_EQ(nr.wirelength, manhattan(Point{30, 20}, Point{60, 70}));
  EXPECT_EQ(nr.wirelength, bbox->half_perimeter());
}

TEST(Steiner, SteinerNeverWorseThanPinsOnlyTree) {
  // Property: on a seed sweep of terminal sets, segment-connection trees are
  // never longer than pins-only spanning trees.
  const Fixture f(std::vector<Rect>{{30, 30, 45, 60}, {60, 20, 75, 50}});
  std::mt19937_64 rng(42);
  std::uniform_int_distribution<geom::Coord> coord(0, 100);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::vector<Point>> terminals;
    const int k = 3 + trial % 4;
    for (int t = 0; t < k; ++t) {
      Point p{coord(rng), coord(rng)};
      while (!f.index.routable(p)) p = Point{coord(rng), coord(rng)};
      terminals.push_back({p});
    }
    const auto steiner = f.router.route_terminals(terminals);
    route::SteinerOptions pins_only;
    pins_only.connect_to_segments = false;
    const auto spanning = f.router.route_terminals(terminals, pins_only);
    ASSERT_TRUE(steiner.ok);
    ASSERT_TRUE(spanning.ok);
    EXPECT_LE(steiner.wirelength, spanning.wirelength) << "trial " << trial;
  }
}

}  // namespace
