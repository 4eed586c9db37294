// Unit tests for the layout model: cells, terminals, nets, and the
// placement-rule validation the paper's problem statement prescribes.

#include <gtest/gtest.h>

#include <algorithm>

#include "layout/layout.hpp"

namespace {

using namespace gcr;
using geom::Point;
using geom::Rect;

layout::Layout two_cell_layout() {
  layout::Layout lay(Rect{0, 0, 100, 100});
  lay.set_min_separation(4);
  lay.add_cell(layout::Cell{"a", Rect{10, 10, 30, 30}});
  lay.add_cell(layout::Cell{"b", Rect{50, 50, 80, 80}});
  return lay;
}

bool has_issue(const std::vector<layout::ValidationIssue>& issues,
               layout::ValidationIssue::Kind kind) {
  return std::any_of(issues.begin(), issues.end(),
                     [kind](const auto& i) { return i.kind == kind; });
}

TEST(Layout, ValidTwoCellLayout) {
  const layout::Layout lay = two_cell_layout();
  EXPECT_TRUE(lay.valid()) << lay.validate().front().detail;
  EXPECT_EQ(lay.cells().size(), 2u);
  EXPECT_EQ(lay.obstacles().size(), 2u);
}

TEST(Layout, RejectsImproperCell) {
  layout::Layout lay = two_cell_layout();
  lay.add_cell(layout::Cell{"line", Rect{40, 5, 40, 9}});  // zero width
  EXPECT_TRUE(has_issue(lay.validate(),
                        layout::ValidationIssue::Kind::kCellNotProper));
}

TEST(Layout, RejectsCellOutsideBoundary) {
  layout::Layout lay = two_cell_layout();
  lay.add_cell(layout::Cell{"out", Rect{90, 90, 120, 95}});
  EXPECT_TRUE(has_issue(lay.validate(),
                        layout::ValidationIssue::Kind::kCellOutsideBoundary));
}

TEST(Layout, RejectsCellsTooClose) {
  layout::Layout lay = two_cell_layout();
  // Separation 2 < min_separation 4.
  lay.add_cell(layout::Cell{"close", Rect{32, 10, 44, 30}});
  EXPECT_TRUE(has_issue(lay.validate(),
                        layout::ValidationIssue::Kind::kCellsTooClose));
}

TEST(Layout, RejectsTouchingCellsEvenWithMinSeparationOne) {
  // The paper demands a *non-zero* distance: touching is always illegal.
  layout::Layout lay(Rect{0, 0, 100, 100});
  lay.set_min_separation(1);
  lay.add_cell(layout::Cell{"a", Rect{10, 10, 30, 30}});
  lay.add_cell(layout::Cell{"b", Rect{30, 10, 50, 30}});  // shares an edge
  EXPECT_TRUE(has_issue(lay.validate(),
                        layout::ValidationIssue::Kind::kCellsTooClose));
}

TEST(Layout, RejectsPinBuriedInCell) {
  layout::Layout lay = two_cell_layout();
  lay.cell(layout::CellId{0}).add_pin_terminal("buried", Point{20, 20});
  EXPECT_TRUE(has_issue(lay.validate(),
                        layout::ValidationIssue::Kind::kPinInsideCell));
}

TEST(Layout, AcceptsPinOnCellBoundary) {
  layout::Layout lay = two_cell_layout();
  lay.cell(layout::CellId{0}).add_pin_terminal("edge", Point{30, 20});
  lay.cell(layout::CellId{1}).add_pin_terminal("corner", Point{50, 50});
  layout::Net n("n");
  n.add_terminal(layout::TerminalRef{layout::CellId{0}, 0});
  n.add_terminal(layout::TerminalRef{layout::CellId{1}, 0});
  lay.add_net(std::move(n));
  EXPECT_TRUE(lay.valid()) << lay.validate().front().detail;
}

TEST(Layout, RejectsDanglingTerminalRef) {
  layout::Layout lay = two_cell_layout();
  layout::Net n("n");
  n.add_terminal(layout::TerminalRef{layout::CellId{0}, 7});  // no such term
  n.add_terminal(layout::TerminalRef{layout::CellId{5}, 0});  // no such cell
  lay.add_net(std::move(n));
  const auto issues = lay.validate();
  EXPECT_TRUE(
      has_issue(issues, layout::ValidationIssue::Kind::kDanglingTerminal));
}

TEST(Layout, RejectsSingleTerminalNet) {
  layout::Layout lay = two_cell_layout();
  lay.cell(layout::CellId{0}).add_pin_terminal("t", Point{10, 20});
  layout::Net n("lonely");
  n.add_terminal(layout::TerminalRef{layout::CellId{0}, 0});
  lay.add_net(std::move(n));
  EXPECT_TRUE(has_issue(lay.validate(),
                        layout::ValidationIssue::Kind::kNetTooSmall));
}

TEST(Layout, RejectsTerminalWithoutPins) {
  layout::Layout lay = two_cell_layout();
  lay.cell(layout::CellId{0}).add_terminal(layout::Terminal{"empty", {}});
  EXPECT_TRUE(has_issue(lay.validate(),
                        layout::ValidationIssue::Kind::kTerminalNoPins));
}

TEST(Layout, PadTerminals) {
  layout::Layout lay = two_cell_layout();
  const layout::TerminalRef pad = lay.add_pad_pin("vdd", Point{0, 50});
  EXPECT_FALSE(pad.cell.valid());
  EXPECT_TRUE(lay.terminal_exists(pad));
  EXPECT_EQ(lay.terminal(pad).pins.size(), 1u);
  EXPECT_EQ(lay.terminal(pad).pins[0].pos, (Point{0, 50}));
}

TEST(Layout, MultiPinTerminalRoundTrip) {
  layout::Layout lay = two_cell_layout();
  layout::Terminal t;
  t.name = "clk";
  t.pins.push_back(layout::Pin{Point{10, 15}, "clk"});  // west side
  t.pins.push_back(layout::Pin{Point{30, 15}, "clk"});  // east side
  const std::uint32_t idx = lay.cell(layout::CellId{0}).add_terminal(t);
  const layout::TerminalRef ref{layout::CellId{0}, idx};
  EXPECT_EQ(lay.terminal(ref).pins.size(), 2u);
}

TEST(Layout, PolygonCellObstaclesDecompose) {
  layout::Layout lay(Rect{0, 0, 100, 100});
  const geom::OrthoPolygon ell{{{10, 10}, {50, 10}, {50, 30}, {30, 30},
                                {30, 50}, {10, 50}}};
  lay.add_cell(layout::Cell{"ell", ell});
  const auto obs = lay.obstacles();
  EXPECT_GE(obs.size(), 2u);
  // The blocking set covers the polygon (with seam overlaps) and nothing
  // outside it.
  const auto pure = ell.decompose();
  geom::Cost area = 0;
  for (const Rect& r : pure) area += r.area();
  EXPECT_EQ(area, ell.area());
  for (const Rect& r : obs) {
    EXPECT_TRUE(ell.bounding_box().contains(r)) << r;
  }
  EXPECT_TRUE(lay.valid());
}

TEST(Layout, RejectsInvalidPolygonCell) {
  layout::Layout lay(Rect{0, 0, 100, 100});
  const geom::OrthoPolygon bad{{{0, 0}, {10, 10}, {0, 10}, {10, 0}}};
  lay.add_cell(layout::Cell{"bad", bad});
  EXPECT_TRUE(has_issue(lay.validate(),
                        layout::ValidationIssue::Kind::kInvalidPolygon));
}

TEST(Layout, InvalidPolygonObstaclesFallBackToOutline) {
  // An invalid polygon cannot be decomposed; obstacle queries (which run
  // even on layouts validate() rejects) must degrade to the bounding
  // outline instead of crashing on non-rectilinear edges.
  layout::Layout lay(Rect{0, 0, 100, 100});
  const geom::OrthoPolygon bad{{{0, 0}, {10, 10}, {0, 10}, {10, 0}}};
  lay.add_cell(layout::Cell{"bad", bad});
  const auto rects = lay.obstacles();
  ASSERT_EQ(rects.size(), 1u);
  EXPECT_EQ(rects[0], (Rect{0, 0, 10, 10}));
}

TEST(Layout, NestedPolygonSeparationUsesDecomposition) {
  // A C-ring around a small block: bounding boxes overlap, but the actual
  // wall rectangles keep their distance, so the layout is valid.
  layout::Layout lay(Rect{0, 0, 100, 100});
  lay.set_min_separation(2);
  const geom::OrthoPolygon ring{{{45, 90}, {10, 90}, {10, 10}, {90, 10},
                                 {90, 90}, {55, 90}, {55, 80}, {80, 80},
                                 {80, 20}, {20, 20}, {20, 80}, {45, 80}}};
  ASSERT_TRUE(ring.valid());
  lay.add_cell(layout::Cell{"ring", ring});
  lay.add_cell(layout::Cell{"core", Rect{40, 40, 60, 60}});
  EXPECT_TRUE(lay.valid()) << lay.validate().front().detail;
}

TEST(Layout, PinCountAggregates) {
  layout::Layout lay = two_cell_layout();
  lay.cell(layout::CellId{0}).add_pin_terminal("a", Point{10, 12});
  layout::Terminal multi;
  multi.name = "m";
  multi.pins = {layout::Pin{Point{10, 14}, "m"}, layout::Pin{Point{30, 14}, "m"}};
  lay.cell(layout::CellId{1}).add_terminal(multi);
  lay.add_pad_pin("p", Point{0, 1});
  EXPECT_EQ(lay.pin_count(), 4u);
}

TEST(Layout, IssueKindNames) {
  using Kind = layout::ValidationIssue::Kind;
  EXPECT_EQ(layout::to_string(Kind::kCellsTooClose), "cells-too-close");
  EXPECT_EQ(layout::to_string(Kind::kNetTooSmall), "net-too-small");
}

TEST(Layout, RejectsCoordinatesBeyondTheBound) {
  constexpr geom::Coord kMax = layout::kMaxCoordinate;
  layout::Layout at_bound(Rect{-kMax, -kMax, kMax, kMax});
  at_bound.add_cell(layout::Cell{"a", Rect{kMax - 10, kMax - 10, kMax, kMax}});
  at_bound.add_pad_pin("p", Point{-kMax, kMax});
  EXPECT_TRUE(at_bound.valid()) << at_bound.validate().front().detail;

  // One past the bound anywhere — boundary, cell, pin, minsep — is reported
  // alone: the overlap and containment checks never see the coordinates.
  layout::Layout beyond(Rect{0, 0, kMax + 1, 10});
  beyond.add_cell(layout::Cell{"a", Rect{-kMax - 1, 0, 5, 5}});
  beyond.add_cell(layout::Cell{"b", Rect{0, 0, 5, 5}});  // overlaps a
  beyond.add_pad_pin("p", Point{0, kMax + 1});
  beyond.set_min_separation(kMax + 1);
  const auto issues = beyond.validate();
  ASSERT_EQ(issues.size(), 4u);
  for (const auto& issue : issues) {
    EXPECT_EQ(issue.kind, layout::ValidationIssue::Kind::kCoordinateOutOfRange)
        << issue.detail;
  }
  EXPECT_EQ(issues[0].detail, "boundary");
  EXPECT_EQ(issues[1].detail, "minsep");
  EXPECT_EQ(issues[2].detail, "cell#0 'a'");
  EXPECT_EQ(issues[3].detail, "pad#0");
  EXPECT_EQ(layout::to_string(issues[0].kind), "coordinate-out-of-range");
}

}  // namespace
