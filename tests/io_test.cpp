// Tests for the text interchange format (round trip + error reporting) and
// the SVG export.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/netlist_router.hpp"
#include "io/svg.hpp"
#include "io/text_format.hpp"
#include "workload/floorplan.hpp"
#include "workload/netgen.hpp"

namespace {

using namespace gcr;
using geom::Point;
using geom::Rect;

constexpr const char* kSample = R"(
# a small two-cell problem
boundary 0 0 100 100
minsep 4
cell alu 10 10 30 30
cell rom 50 50 80 80
term alu a 30 20
term alu clk 10 15 30 15
term rom d 50 70
pad vdd 0 5
net n1 alu.a rom.d
net pwr alu.clk pad.vdd
)";

TEST(TextFormat, ParsesSample) {
  const layout::Layout lay = io::read_layout_string(kSample);
  EXPECT_EQ(lay.boundary(), (Rect{0, 0, 100, 100}));
  EXPECT_EQ(lay.min_separation(), 4);
  ASSERT_EQ(lay.cells().size(), 2u);
  EXPECT_EQ(lay.cells()[0].name(), "alu");
  ASSERT_EQ(lay.cells()[0].terminals().size(), 2u);
  EXPECT_EQ(lay.cells()[0].terminals()[1].pins.size(), 2u);  // multi-pin clk
  ASSERT_EQ(lay.pads().size(), 1u);
  ASSERT_EQ(lay.nets().size(), 2u);
  EXPECT_FALSE(lay.nets()[1].terminals()[1].cell.valid());  // pad ref
  EXPECT_TRUE(lay.valid());
}

TEST(TextFormat, RoundTripPreservesEverything) {
  const layout::Layout a = io::read_layout_string(kSample);
  const std::string text = io::write_layout_string(a);
  const layout::Layout b = io::read_layout_string(text);
  EXPECT_EQ(io::write_layout_string(b), text);
  EXPECT_EQ(b.cells().size(), a.cells().size());
  EXPECT_EQ(b.nets().size(), a.nets().size());
  EXPECT_EQ(b.pin_count(), a.pin_count());
}

TEST(TextFormat, RoundTripGeneratedLayout) {
  workload::FloorplanOptions opts;
  opts.seed = 11;
  layout::Layout lay = workload::random_floorplan(opts);
  workload::sprinkle_pins(lay);
  workload::generate_nets(lay);
  const std::string text = io::write_layout_string(lay);
  const layout::Layout back = io::read_layout_string(text);
  EXPECT_EQ(io::write_layout_string(back), text);
  EXPECT_EQ(back.nets().size(), lay.nets().size());
}

TEST(TextFormat, PolygonCells) {
  const char* text = R"(
boundary 0 0 100 100
poly ell 10 10 50 10 50 30 30 30 30 50 10 50
)";
  const layout::Layout lay = io::read_layout_string(text);
  ASSERT_EQ(lay.cells().size(), 1u);
  EXPECT_TRUE(lay.cells()[0].polygonal());
  EXPECT_EQ(lay.cells()[0].shape().area(), 40 * 20 + 20 * 20);
  // Writer emits the polygon; round trip is stable.
  const layout::Layout back = io::read_layout_string(io::write_layout_string(lay));
  EXPECT_TRUE(back.cells()[0].polygonal());
}

TEST(TextFormat, Errors) {
  EXPECT_THROW((void)io::read_layout_string("bogus 1 2"), io::ParseError);
  EXPECT_THROW(io::read_layout_string("boundary 1 2 3"), io::ParseError);
  EXPECT_THROW(io::read_layout_string("cell a 0 0 x 9"), io::ParseError);
  EXPECT_THROW(io::read_layout_string("term ghost t 1 2"), io::ParseError);
  EXPECT_THROW(io::read_layout_string("net n a.b c.d"), io::ParseError);
  EXPECT_THROW(io::read_layout_string("net n nodot"), io::ParseError);
  EXPECT_THROW(
      io::read_layout_string("cell a 0 0 5 5\ncell a 6 6 9 9"),
      io::ParseError);
  EXPECT_THROW(io::read_layout_string("poly p 0 0 5 5 0 5 5 0"),
               io::ParseError);  // invalid polygon
  try {
    (void)io::read_layout_string("boundary 0 0 9 9\nwhat");
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(TextFormat, RejectsTruncatedAndGarbageInput) {
  // The serving layer parses untrusted request bodies: anything that is not
  // a complete layout must throw, never return partial state.
  EXPECT_THROW((void)io::read_layout_string(""), io::ParseError);
  EXPECT_THROW((void)io::read_layout_string("# only a comment\n"),
               io::ParseError);
  // Truncated: directives but no boundary.
  EXPECT_THROW((void)io::read_layout_string("minsep 4\n"), io::ParseError);
  // Degenerate or inverted boundary.
  EXPECT_THROW((void)io::read_layout_string("boundary 0 0 0 0\n"),
               io::ParseError);
  EXPECT_THROW((void)io::read_layout_string("boundary 9 9 0 0\n"),
               io::ParseError);
  // Duplicate boundary.
  EXPECT_THROW((void)io::read_layout_string(
                   "boundary 0 0 9 9\nboundary 0 0 8 8\n"),
               io::ParseError);
  // Binary garbage: the error must carry line + a printable token.
  try {
    (void)io::read_layout_string(std::string("\x01\x02\xff garbage", 11));
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    const std::string what = e.what();
    for (const char c : what) {
      EXPECT_TRUE(c == '\t' || (static_cast<unsigned char>(c) >= 0x20 &&
                                static_cast<unsigned char>(c) < 0x7f))
          << "unprintable byte in diagnostic";
    }
  }
  // Error messages report how many arguments were actually supplied.
  try {
    (void)io::read_layout_string("boundary 1 2 3");
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("got 3"), std::string::npos);
  }
}

TEST(TextFormat, CommentsAndBlankLinesIgnored) {
  const layout::Layout lay = io::read_layout_string(
      "\n# header\nboundary 0 0 9 9\n\ncell a 1 1 3 3  # inline comment\n");
  EXPECT_EQ(lay.cells().size(), 1u);
}

TEST(TextFormat, PadRejectsOddTrailingCoordinate) {
  // `term` rejects the same arity; a dropped coordinate is a typo, not a pin.
  try {
    (void)io::read_layout_string("boundary 0 0 999 999\npad vdd 0 512 7\n");
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_STREQ(e.what(), "line 2: pad needs pin coordinate pairs");
  }
  const layout::Layout lay =
      io::read_layout_string("boundary 0 0 999 999\npad vdd 0 512 0 600\n");
  ASSERT_EQ(lay.pads().size(), 1u);
  EXPECT_EQ(lay.pads()[0].pins.size(), 2u);
}

TEST(TextFormat, RejectsDuplicateTerminalWithinCell) {
  // The same terminal name on two cells is fine; twice on one cell would
  // shadow the first terminal and leave it unreachable from any net.
  const std::string two_cells =
      "boundary 0 0 99 99\ncell a 10 10 20 20\ncell b 30 30 40 40\n"
      "term a t 10 15\nterm b t 30 35\nnet n a.t b.t\n";
  EXPECT_EQ(io::read_layout_string(two_cells).nets().size(), 1u);
  try {
    (void)io::read_layout_string(two_cells + "term a t 20 15\n");
    FAIL() << "expected ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_EQ(e.line(), 7u);
    EXPECT_STREQ(e.what(), "line 7: duplicate terminal 'a.t'");
  }
}

TEST(TextFormat, TokenGrammarEdges) {
  // A leading '+' is a sign; '#' opens a comment only at a token start; CR,
  // VT and FF separate tokens like spaces.
  const layout::Layout lay = io::read_layout_string(
      "boundary +0 -0 +90 90\r\ncell a#b 1 1 3 3 #c\v\f\n"
      "term a#b t 3 2\npad p 50 50\nnet n a#b.t pad.p");
  EXPECT_EQ(lay.boundary(), (Rect{0, 0, 90, 90}));
  ASSERT_EQ(lay.cells().size(), 1u);
  EXPECT_EQ(lay.cells()[0].name(), "a#b");
  ASSERT_EQ(lay.nets().size(), 1u);
  EXPECT_EQ(lay.nets()[0].terminals().size(), 2u);
  for (const char* bad : {"+-5", "--5", "0x10", "1e3", "5,", "+", "-",
                          "9223372036854775808"}) {
    try {
      (void)io::read_layout_string(std::string("minsep ") + bad);
      FAIL() << "accepted " << bad;
    } catch (const io::ParseError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("line 1: expected integer, got '") + bad + "'");
    }
  }
  EXPECT_EQ(io::read_layout_string("boundary 0 0 9 9\nminsep "
                                   "-9223372036854775808")
                .min_separation(),
            std::numeric_limits<geom::Coord>::min());
}

TEST(Svg, ContainsCellsPinsAndRoutes) {
  layout::Layout lay(Rect{0, 0, 100, 100});
  lay.set_min_separation(4);
  const auto a = lay.add_cell(layout::Cell{"a", Rect{10, 10, 30, 30}});
  const auto b = lay.add_cell(layout::Cell{"b", Rect{60, 60, 90, 90}});
  lay.cell(a).add_pin_terminal("p", Point{30, 20});
  lay.cell(b).add_pin_terminal("q", Point{60, 70});
  layout::Net net("n");
  net.add_terminal(layout::TerminalRef{a, 0});
  net.add_terminal(layout::TerminalRef{b, 0});
  lay.add_net(std::move(net));

  const route::NetlistRouter router(lay);
  const auto result = router.route_all();
  const std::string svg = io::svg_string(lay, &result);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);  // pins
  EXPECT_NE(svg.find("<line"), std::string::npos);    // route segments
  EXPECT_NE(svg.find(">a</text>"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Svg, PolygonCellRendersDecomposition) {
  layout::Layout lay(Rect{0, 0, 60, 60});
  const geom::OrthoPolygon ell{{{10, 10}, {50, 10}, {50, 30}, {30, 30},
                                {30, 50}, {10, 50}}};
  lay.add_cell(layout::Cell{"ell", ell});
  const std::string svg = io::svg_string(lay);
  // Two decomposition rectangles plus the backdrop.
  EXPECT_GE(static_cast<int>(std::count(svg.begin(), svg.end(), '\n')), 4);
  EXPECT_NE(svg.find("ell"), std::string::npos);
}

}  // namespace
