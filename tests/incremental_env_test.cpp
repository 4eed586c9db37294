// Differential tests for the incremental SearchEnvironment: obstacle-index
// bucket inserts and localized escape-line regeneration must be *exactly*
// equivalent to rebuilding both structures from scratch after every change.
// Sequential-mode netlist routing — the consumer that motivated the
// incremental path — is checked end-to-end for bit-identical routes against
// a reference loop that rebuilds per net, across the fuzz layout corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/netlist_router.hpp"
#include "core/search_environment.hpp"
#include "core/steiner.hpp"
#include "crossings.hpp"
#include "fuzz_env.hpp"
#include "reference_sequential.hpp"
#include "spatial/escape_lines.hpp"
#include "spatial/obstacle_index.hpp"
#include "workload/floorplan.hpp"
#include "workload/netgen.hpp"

namespace {

using namespace gcr;
using geom::Coord;
using geom::Dir;
using geom::Point;
using geom::Rect;
using geom::Segment;

// ------------------------------------------------------------ helpers

/// Random rectangles in a `extent`^2 region; sizes skew small, like wire
/// halos.  Overlaps are intentional: sequential-mode halos overlap cells.
std::vector<Rect> random_rects(std::mt19937_64& rng, std::size_t count,
                               Coord extent) {
  std::uniform_int_distribution<Coord> pos(0, extent - 1);
  std::uniform_int_distribution<Coord> len(0, extent / 4);
  std::vector<Rect> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Coord x = pos(rng), y = pos(rng);
    out.push_back(Rect{x, y, x + len(rng), y + len(rng)});
  }
  return out;
}

/// Asserts every observable ObstacleIndex query answers identically.
void expect_index_equivalent(const spatial::ObstacleIndex& incremental,
                             const spatial::ObstacleIndex& fresh,
                             std::mt19937_64& rng, int probes) {
  ASSERT_EQ(incremental.size(), fresh.size());
  ASSERT_EQ(incremental.obstacles(), fresh.obstacles());
  const Rect& b = fresh.boundary();
  std::uniform_int_distribution<Coord> px(b.xlo, b.xhi);
  std::uniform_int_distribution<Coord> py(b.ylo, b.yhi);
  for (int i = 0; i < probes; ++i) {
    const Point p{px(rng), py(rng)};
    EXPECT_EQ(incremental.interior(p), fresh.interior(p)) << p;
    EXPECT_EQ(incremental.routable(p), fresh.routable(p)) << p;
    for (const Dir d : geom::kAllDirs) {
      EXPECT_EQ(incremental.trace(p, d).stop, fresh.trace(p, d).stop)
          << p << " dir " << static_cast<int>(d);
    }
    const Point q{px(rng), py(rng)};
    if (p.x == q.x || p.y == q.y) {
      const Segment s{p, q};
      EXPECT_EQ(incremental.segment_blocked(s), fresh.segment_blocked(s)) << s;
    }
    EXPECT_EQ(incremental.query(Rect{p, q}), fresh.query(Rect{p, q}));
  }
}

/// Asserts crossings queries answer identically from random routable
/// probes: the directional oracle over the line records, and
/// `crossings_in` over each probe's free run, which reads the lookup
/// tables.
void expect_lines_equivalent(const spatial::EscapeLineSet& incremental,
                             const spatial::EscapeLineSet& fresh,
                             const spatial::ObstacleIndex& index,
                             std::mt19937_64& rng, int probes) {
  const Rect& b = index.boundary();
  std::uniform_int_distribution<Coord> px(b.xlo, b.xhi);
  std::uniform_int_distribution<Coord> py(b.ylo, b.yhi);
  for (int i = 0; i < probes; ++i) {
    const Point p{px(rng), py(rng)};
    if (!index.routable(p)) continue;
    for (const Dir d : geom::kAllDirs) {
      const Coord stop = index.trace(p, d).stop;
      EXPECT_EQ(test::crossings(incremental, p, d, stop),
                test::crossings(fresh, p, d, stop))
          << p << " dir " << static_cast<int>(d);
    }
    for (const geom::Axis ax : {geom::Axis::kX, geom::Axis::kY}) {
      const bool x = ax == geom::Axis::kX;
      const Coord lo = index.trace(p, x ? Dir::kWest : Dir::kSouth).stop;
      const Coord hi = index.trace(p, x ? Dir::kEast : Dir::kNorth).stop;
      const Coord off = p.along(geom::other(ax));
      EXPECT_EQ(test::crossings_in(incremental, ax, off, lo, hi),
                test::crossings_in(fresh, ax, off, lo, hi))
          << p << " axis " << static_cast<int>(ax);
    }
  }
}

/// Behavioral index equivalence for the removal path: a tombstoned index
/// and a fresh build over the live rects number their obstacles
/// differently, so identity-carrying outputs (`query` indices) are
/// compared as *rect sets* and everything else by observable geometry.
void expect_index_equivalent_behavior(const spatial::ObstacleIndex& got,
                                      const spatial::ObstacleIndex& want,
                                      std::mt19937_64& rng, int probes) {
  ASSERT_EQ(got.live_size(), want.live_size());
  const Rect& b = want.boundary();
  std::uniform_int_distribution<Coord> px(b.xlo, b.xhi);
  std::uniform_int_distribution<Coord> py(b.ylo, b.yhi);
  const auto rect_set = [](const spatial::ObstacleIndex& idx,
                           const std::vector<std::size_t>& hits) {
    std::vector<Rect> out;
    out.reserve(hits.size());
    for (const std::size_t i : hits) out.push_back(idx.obstacles()[i]);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (int i = 0; i < probes; ++i) {
    const Point p{px(rng), py(rng)};
    EXPECT_EQ(got.interior(p), want.interior(p)) << p;
    EXPECT_EQ(got.routable(p), want.routable(p)) << p;
    for (const Dir d : geom::kAllDirs) {
      EXPECT_EQ(got.trace(p, d).stop, want.trace(p, d).stop)
          << p << " dir " << static_cast<int>(d);
    }
    const Point q{px(rng), py(rng)};
    if (p.x == q.x || p.y == q.y) {
      const Segment s{p, q};
      EXPECT_EQ(got.segment_blocked(s), want.segment_blocked(s)) << s;
    }
    EXPECT_EQ(rect_set(got, got.query(Rect{p, q})),
              rect_set(want, want.query(Rect{p, q})));
  }
}

layout::Layout corpus_layout(std::uint64_t seed) {
  workload::FloorplanOptions fp;
  fp.seed = seed;
  fp.cell_count = 6 + seed % 7;
  fp.boundary = Rect{0, 0, 384, 384};
  layout::Layout lay = workload::random_floorplan(fp);
  workload::PinGenOptions pins;
  pins.seed = seed + 1;
  workload::sprinkle_pins(lay, pins);
  workload::NetGenOptions ng;
  ng.seed = seed + 2;
  ng.net_count = 8 + seed % 9;
  ng.max_terminals = 3;
  workload::generate_nets(lay, ng);
  return lay;
}

void expect_results_identical(const route::NetlistResult& got,
                              const route::NetlistResult& want) {
  EXPECT_EQ(got.routed, want.routed);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.total_wirelength, want.total_wirelength);
  EXPECT_EQ(got.stats.nodes_expanded, want.stats.nodes_expanded);
  EXPECT_EQ(got.stats.nodes_generated, want.stats.nodes_generated);
  EXPECT_EQ(got.stats.nodes_reopened, want.stats.nodes_reopened);
  ASSERT_EQ(got.routes.size(), want.routes.size());
  for (std::size_t i = 0; i < want.routes.size(); ++i) {
    EXPECT_EQ(got.routes[i].ok, want.routes[i].ok) << "net " << i;
    EXPECT_EQ(got.routes[i].segments, want.routes[i].segments) << "net " << i;
    EXPECT_EQ(got.routes[i].wirelength, want.routes[i].wirelength)
        << "net " << i;
    EXPECT_EQ(got.routes[i].stats.nodes_expanded,
              want.routes[i].stats.nodes_expanded)
        << "net " << i;
  }
}

// ------------------------------------------------- ObstacleIndex::insert

TEST(IncrementalIndex, InsertMatchesFromScratchBuild) {
  std::mt19937_64 rng(0xA11CE);
  const int iters = test::fuzz_iters(40);
  for (int round = 0; round < 8; ++round) {
    const std::vector<Rect> rects = random_rects(rng, 24, 200);
    spatial::ObstacleIndex incremental(Rect{0, 0, 200, 200}, {});
    for (std::size_t n = 0; n < rects.size(); ++n) {
      incremental.insert(rects[n]);
      if (n % 5 != 0 && n + 1 != rects.size()) continue;  // spot-check
      const spatial::ObstacleIndex fresh(
          Rect{0, 0, 200, 200},
          std::vector<Rect>(rects.begin(), rects.begin() + n + 1));
      expect_index_equivalent(incremental, fresh, rng, iters);
    }
  }
}

TEST(IncrementalIndex, InsertIntoDefaultConstructedIndex) {
  // A default-constructed index never built its bucket grid; the first
  // insert must lay it out instead of writing into empty buckets (this was
  // an ASan finding).
  spatial::ObstacleIndex idx;
  idx.insert(Rect{0, 0, 10, 10});
  idx.insert(Rect{20, 0, 30, 10});
  EXPECT_EQ(idx.size(), 2u);
  EXPECT_TRUE(idx.interior(Point{5, 5}));
  EXPECT_FALSE(idx.interior(Point{15, 5}));
  EXPECT_EQ(idx.query(Rect{0, 0, 40, 10}).size(), 2u);
}

TEST(IncrementalIndex, InsertAcceptsRectsBeyondBoundary) {
  // Wire halos inflate past the routing boundary; inserts and queries must
  // behave exactly like a from-scratch build over the same rects.
  std::mt19937_64 rng(7);
  spatial::ObstacleIndex incremental(Rect{0, 0, 100, 100},
                                     {Rect{40, 40, 60, 60}});
  incremental.insert(Rect{-5, 20, 30, 30});    // protrudes west
  incremental.insert(Rect{90, 95, 120, 108});  // protrudes north-east
  const spatial::ObstacleIndex fresh(
      Rect{0, 0, 100, 100},
      {Rect{40, 40, 60, 60}, Rect{-5, 20, 30, 30}, Rect{90, 95, 120, 108}});
  expect_index_equivalent(incremental, fresh, rng, 200);
  EXPECT_TRUE(incremental.interior(Point{0, 25}));  // inside the west halo
}

// ------------------------------------------------- ObstacleIndex::remove

TEST(IncrementalIndex, RemoveMatchesFromScratchBuild) {
  // Tombstoning must answer every query exactly like a fresh build over
  // the surviving rects, at any interleaving of removals — and compact()
  // must preserve the answers while erasing the tombstones.
  std::mt19937_64 rng(0xD00D);
  const int iters = test::fuzz_iters(40);
  for (int round = 0; round < 8; ++round) {
    const std::vector<Rect> rects = random_rects(rng, 24, 200);
    spatial::ObstacleIndex incremental(Rect{0, 0, 200, 200}, {});
    for (const Rect& r : rects) incremental.insert(r);

    // Remove a random half, one at a time, spot-checking along the way.
    std::vector<std::size_t> victims;
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (rng() % 2 == 0) victims.push_back(i);
    }
    std::vector<bool> removed(rects.size(), false);
    for (std::size_t k = 0; k < victims.size(); ++k) {
      EXPECT_TRUE(incremental.remove(victims[k]));
      EXPECT_FALSE(incremental.remove(victims[k]));  // idempotent
      removed[victims[k]] = true;
      if (k % 3 != 0 && k + 1 != victims.size()) continue;  // spot-check
      std::vector<Rect> live;
      for (std::size_t i = 0; i < rects.size(); ++i) {
        if (!removed[i]) live.push_back(rects[i]);
      }
      const spatial::ObstacleIndex fresh(Rect{0, 0, 200, 200}, live);
      expect_index_equivalent_behavior(incremental, fresh, rng, iters);
    }

    // Compaction: same behavior, tombstones gone, remap consistent.
    const std::size_t live_before = incremental.live_size();
    const std::vector<std::size_t> remap = incremental.compact();
    EXPECT_EQ(incremental.dead_count(), 0u);
    EXPECT_EQ(incremental.size(), live_before);
    std::vector<Rect> live;
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (removed[i]) {
        EXPECT_EQ(remap[i], spatial::ObstacleIndex::npos);
      } else {
        ASSERT_LT(remap[i], incremental.size());
        EXPECT_EQ(incremental.obstacles()[remap[i]], rects[i]);
        live.push_back(rects[i]);
      }
    }
    const spatial::ObstacleIndex fresh(Rect{0, 0, 200, 200}, live);
    expect_index_equivalent(incremental, fresh, rng, iters);
  }
}

// -------------------------------------------- EscapeLineSet::insert_obstacle

TEST(IncrementalLines, InsertMatchesFromScratchBuild) {
  std::mt19937_64 rng(0xBEEF);
  const int iters = test::fuzz_iters(40);
  for (int round = 0; round < 8; ++round) {
    const std::vector<Rect> rects = random_rects(rng, 20, 200);
    spatial::ObstacleIndex index(Rect{0, 0, 200, 200}, {});
    spatial::EscapeLineSet incremental(index);
    for (std::size_t n = 0; n < rects.size(); ++n) {
      index.insert(rects[n]);
      incremental.insert_obstacle(index, n);
      if (n % 4 != 0 && n + 1 != rects.size()) continue;  // spot-check
      const spatial::EscapeLineSet fresh(index);
      ASSERT_EQ(incremental.lines().size(), fresh.lines().size());
      EXPECT_EQ(incremental.lines(), fresh.lines());
      expect_lines_equivalent(incremental, fresh, index, rng, iters);
    }
  }
}

// ---------------------------------- insert_obstacle's closed-form clip
//
// The insert side clips spans without tracing.  Each case below checks
// every record against a fresh build over the same obstacles.

/// Inserts \p r into \p index and \p lines, then expects the records of a
/// from-scratch build.
void insert_and_expect_fresh(spatial::ObstacleIndex& index,
                             spatial::EscapeLineSet& lines, const Rect& r) {
  index.insert(r);
  lines.insert_obstacle(index, index.size() - 1);
  const spatial::EscapeLineSet fresh(index);
  EXPECT_EQ(lines.lines(), fresh.lines()) << "after inserting " << r;
}

/// Span of obstacle \p ob's line \p k (0 left, 1 right, 2 bottom, 3 top).
geom::Interval span_of(const spatial::EscapeLineSet& lines, std::size_t ob,
                       std::size_t k) {
  return lines.lines()[4 + 4 * ob + k].span;
}

TEST(IncrementalLinesClip, ZeroAreaInsertClipsNothing) {
  spatial::ObstacleIndex index(Rect{0, 0, 100, 100}, {Rect{40, 40, 60, 60}});
  spatial::EscapeLineSet lines(index);
  const std::vector<spatial::EscapeLine> before = lines.lines();
  // A segment across both vertical lines below the block, one across both
  // horizontal lines beside it, and a point: none has an interior, so
  // none stops a trace, and none may clip.
  for (const Rect& r : {Rect{30, 20, 70, 20}, Rect{80, 30, 80, 70},
                        Rect{40, 80, 40, 80}}) {
    insert_and_expect_fresh(index, lines, r);
    EXPECT_TRUE(std::equal(before.begin(), before.end(), lines.lines().begin()))
        << "a zero-area insert moved a span: " << r;
  }
}

TEST(IncrementalLinesClip, HaloOverASourceCornerKeepsThatExtension) {
  spatial::ObstacleIndex index(Rect{0, 0, 100, 100}, {Rect{40, 40, 60, 60}});
  spatial::EscapeLineSet lines(index);
  // Covers the top-left corner (40, 60): its near edges lie behind the
  // corner for both lines through it, so the left line still runs north to
  // the boundary and the top line west to it.
  insert_and_expect_fresh(index, lines, Rect{35, 55, 45, 70});
  EXPECT_EQ(span_of(lines, 0, 0), (geom::Interval{0, 100}));
  EXPECT_EQ(span_of(lines, 0, 3), (geom::Interval{0, 100}));
  // Covers the bottom-right corner the same way.
  insert_and_expect_fresh(index, lines, Rect{55, 30, 70, 45});
  EXPECT_EQ(span_of(lines, 0, 1), (geom::Interval{0, 100}));
  EXPECT_EQ(span_of(lines, 0, 2), (geom::Interval{0, 100}));
}

TEST(IncrementalLinesClip, HalosBeyondBothCornersClipBothEnds) {
  spatial::ObstacleIndex index(Rect{0, 0, 100, 100}, {Rect{40, 40, 60, 60}});
  spatial::EscapeLineSet lines(index);
  // Above and below the left line x = 40: north end to 70, south end to 20.
  insert_and_expect_fresh(index, lines, Rect{30, 70, 50, 80});
  EXPECT_EQ(span_of(lines, 0, 0), (geom::Interval{0, 70}));
  insert_and_expect_fresh(index, lines, Rect{30, 10, 50, 20});
  EXPECT_EQ(span_of(lines, 0, 0), (geom::Interval{20, 70}));
  EXPECT_EQ(span_of(lines, 0, 1), (geom::Interval{0, 100}));
  // West and east of the bottom and top lines: both clip to [20, 80].
  insert_and_expect_fresh(index, lines, Rect{10, 30, 20, 65});
  insert_and_expect_fresh(index, lines, Rect{80, 35, 90, 70});
  EXPECT_EQ(span_of(lines, 0, 2), (geom::Interval{20, 80}));
  EXPECT_EQ(span_of(lines, 0, 3), (geom::Interval{20, 80}));
  // A nearer halo clips again; a farther one leaves the span alone.
  insert_and_expect_fresh(index, lines, Rect{35, 65, 45, 68});
  insert_and_expect_fresh(index, lines, Rect{35, 90, 45, 95});
  EXPECT_EQ(span_of(lines, 0, 0), (geom::Interval{20, 65}));
}

TEST(IncrementalLinesClip, InsertRemoveCyclesMatchFreshBuild) {
  // Removal re-extends spans by tracing, and later inserts clip those
  // spans in closed form: the clip's premise (the old span is exact) must
  // keep holding across the cycles.
  std::mt19937_64 rng(0xC11F);
  const int iters = test::fuzz_iters(40);
  for (int round = 0; round < 6; ++round) {
    const Rect bounds{0, 0, 200, 200};
    spatial::ObstacleIndex index(bounds, random_rects(rng, 8, 200));
    spatial::EscapeLineSet lines(index);
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < index.size(); ++i) live.push_back(i);
    for (int step = 0; step < 30; ++step) {
      if (!live.empty() && rng() % 3 == 0) {
        const std::size_t at = rng() % live.size();
        ASSERT_TRUE(index.remove(live[at]));
        lines.remove_obstacle(index, live[at]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        index.insert(random_rects(rng, 1, 200).front());
        lines.insert_obstacle(index, index.size() - 1);
        live.push_back(index.size() - 1);
      }
      // Every live obstacle's records against a fresh build over the live
      // obstacles, which numbers them by rank.
      std::vector<Rect> rects;
      for (const std::size_t i : live) rects.push_back(index.obstacles()[i]);
      const spatial::ObstacleIndex fresh_index(bounds, rects);
      const spatial::EscapeLineSet fresh(fresh_index);
      for (std::size_t rank = 0; rank < live.size(); ++rank) {
        for (std::size_t k = 0; k < 4; ++k) {
          ASSERT_EQ(span_of(lines, live[rank], k), span_of(fresh, rank, k))
              << "round " << round << " step " << step << " obstacle "
              << live[rank] << " line " << k;
        }
      }
      expect_lines_equivalent(lines, fresh, fresh_index, rng, iters);
    }
    lines.compact(index.compact());
    EXPECT_EQ(lines.lines(), spatial::EscapeLineSet(index).lines());
  }
}

// -------------------------------------------- EscapeLineSet::remove_obstacle

TEST(IncrementalLines, RemoveMatchesFromScratchBuild) {
  // Ripping an obstacle out must re-extend exactly the lines it had
  // clipped: crossings answers must match a fresh build over the live
  // obstacles at every step, and a compaction must reproduce the fresh
  // build's records verbatim.
  std::mt19937_64 rng(0xFEED);
  const int iters = test::fuzz_iters(40);
  for (int round = 0; round < 6; ++round) {
    const std::vector<Rect> rects = random_rects(rng, 20, 200);
    spatial::ObstacleIndex index(Rect{0, 0, 200, 200}, {});
    spatial::EscapeLineSet incremental(index);
    for (std::size_t n = 0; n < rects.size(); ++n) {
      index.insert(rects[n]);
      incremental.insert_obstacle(index, n);
    }

    std::vector<bool> removed(rects.size(), false);
    std::vector<std::size_t> victims;
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (rng() % 2 == 0) victims.push_back(i);
    }
    for (std::size_t k = 0; k < victims.size(); ++k) {
      ASSERT_TRUE(index.remove(victims[k]));
      incremental.remove_obstacle(index, victims[k]);
      removed[victims[k]] = true;
      EXPECT_EQ(incremental.live_lines(), 4 + 4 * index.live_size());
      if (k % 3 != 0 && k + 1 != victims.size()) continue;  // spot-check
      std::vector<Rect> live;
      for (std::size_t i = 0; i < rects.size(); ++i) {
        if (!removed[i]) live.push_back(rects[i]);
      }
      const spatial::ObstacleIndex fresh_index(Rect{0, 0, 200, 200}, live);
      const spatial::EscapeLineSet fresh(fresh_index);
      expect_lines_equivalent(incremental, fresh, fresh_index, rng, iters);
    }

    // Lockstep compaction must land on exactly the fresh build's records.
    const std::vector<std::size_t> remap = index.compact();
    incremental.compact(remap);
    const spatial::EscapeLineSet fresh(index);
    EXPECT_EQ(incremental.lines(), fresh.lines());
  }
}

TEST(IncrementalLines, CoincidentCorridorSplitHealsAfterRemoval) {
  // Two cells sharing an edge coordinate keep distinct line records; a
  // halo landing between them splits the corridor, and removing that halo
  // must re-merge the spans without leaking or losing a record — even
  // cycled many times (the rip-up soak the per-source storage exists for).
  const Rect bounds{0, 0, 100, 100};
  spatial::ObstacleIndex index(bounds, {});
  spatial::EscapeLineSet lines(index);
  index.insert(Rect{10, 20, 30, 40});
  lines.insert_obstacle(index, 0);
  index.insert(Rect{60, 20, 80, 40});  // same y-edges: coincident corridors
  lines.insert_obstacle(index, 1);

  const spatial::EscapeLineSet fresh_two(index);
  const int cycles = test::fuzz_iters(1000);
  for (int k = 0; k < cycles; ++k) {
    const std::size_t ob = index.size();
    index.insert(Rect{40, 15, 50, 45});  // between them: splits y=20/y=40
    lines.insert_obstacle(index, ob);
    ASSERT_TRUE(index.remove(ob));
    lines.remove_obstacle(index, ob);
    ASSERT_EQ(lines.live_lines(), 4u + 4 * 2)
        << "cycle " << k << " leaked or lost a line record";
  }
  // After any number of cycles the live behavior is the two-obstacle set.
  std::mt19937_64 rng(5);
  expect_lines_equivalent(lines, fresh_two, index, rng, 300);
  // And a lockstep compaction erases every tombstone, restoring the exact
  // two-obstacle records — memory does not grow with cycle count anymore.
  lines.compact(index.compact());
  EXPECT_EQ(lines.lines(), fresh_two.lines());
  EXPECT_EQ(lines.lines().size(), 4u + 4 * 2);
}

// -------------------------------------------------- SearchEnvironment

TEST(SearchEnvironment, CommitRouteMatchesFromScratchRebuild) {
  std::mt19937_64 rng(11);
  const layout::Layout lay = corpus_layout(3);
  route::SearchEnvironment env(lay);

  const std::vector<Segment> wires{
      {Point{10, 30}, Point{120, 30}},
      {Point{120, 30}, Point{120, 90}},
      {Point{50, 200}, Point{50, 200}},  // degenerate via stub
  };
  env.commit_route(wires, 2);
  EXPECT_EQ(env.committed(), wires.size());

  std::vector<Rect> all = lay.obstacles();
  for (const Segment& s : wires) all.push_back(s.bounds().inflated(2));
  const spatial::ObstacleIndex fresh_index(lay.boundary(), all);
  const spatial::EscapeLineSet fresh_lines(fresh_index);
  expect_index_equivalent(env.index(), fresh_index, rng, 300);
  expect_lines_equivalent(env.lines(), fresh_lines, fresh_index, rng, 300);
}

TEST(SearchEnvironment, RebuildFallbackPreservesBehavior) {
  // rebuild() is the invalidation path for non-local edits: it re-sorts,
  // re-buckets, and re-traces everything, and must answer identically.
  std::mt19937_64 rng(13);
  const layout::Layout lay = corpus_layout(5);
  route::SearchEnvironment incremental(lay);
  incremental.commit_route({{Point{20, 40}, Point{200, 40}}}, 1);

  route::SearchEnvironment rebuilt = incremental;
  const std::size_t builds = route::SearchEnvironment::build_count();
  rebuilt.rebuild();
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds + 1);
  EXPECT_EQ(rebuilt.committed(), incremental.committed());
  expect_index_equivalent(rebuilt.index(), incremental.index(), rng, 300);
  expect_lines_equivalent(rebuilt.lines(), incremental.lines(),
                          incremental.index(), rng, 300);
}

TEST(SearchEnvironment, RebuildAgainstLayoutDiscardsCommits) {
  const layout::Layout lay = corpus_layout(7);
  route::SearchEnvironment env(lay);
  env.commit_route({{Point{20, 40}, Point{200, 40}}}, 1);
  ASSERT_GT(env.committed(), 0u);
  env.rebuild(lay);
  EXPECT_EQ(env.committed(), 0u);
  EXPECT_EQ(env.index().size(), lay.obstacles().size());
}

TEST(SearchEnvironment, RemoveRouteMatchesFromScratchRebuild) {
  // Rip-up at the environment level: committing three keyed nets and
  // removing one must answer every query exactly like a fresh environment
  // over the base cells plus the surviving nets' halos.
  std::mt19937_64 rng(17);
  const layout::Layout lay = corpus_layout(4);
  route::SearchEnvironment env(lay);

  const std::vector<std::vector<Segment>> nets{
      {{Point{10, 30}, Point{120, 30}}, {Point{120, 30}, Point{120, 90}}},
      {{Point{40, 160}, Point{200, 160}}},
      {{Point{250, 40}, Point{250, 220}}, {Point{250, 220}, Point{300, 220}}},
  };
  for (std::size_t i = 0; i < nets.size(); ++i) {
    env.commit_route(i, nets[i], 2);
  }
  EXPECT_EQ(env.committed(), 5u);

  EXPECT_FALSE(env.remove_route(99));  // unknown id: no-op
  EXPECT_TRUE(env.remove_route(1));
  EXPECT_FALSE(env.remove_route(1));  // already ripped
  EXPECT_EQ(env.committed(), 4u);

  std::vector<Rect> want_obs = lay.obstacles();
  for (const std::size_t i : {0u, 2u}) {
    for (const Segment& s : nets[i]) want_obs.push_back(s.bounds().inflated(2));
  }
  const spatial::ObstacleIndex fresh_index(lay.boundary(), want_obs);
  const spatial::EscapeLineSet fresh_lines(fresh_index);
  expect_index_equivalent_behavior(env.index(), fresh_index, rng, 300);
  expect_lines_equivalent(env.lines(), fresh_lines, fresh_index, rng, 300);

  // A net committed after removals is itself removable (indices stay
  // coherent across the tombstones).
  env.commit_route(7, nets[1], 2);
  EXPECT_EQ(env.committed(), 5u);
  EXPECT_TRUE(env.remove_route(7));
  EXPECT_EQ(env.committed(), 4u);
  expect_index_equivalent_behavior(env.index(), fresh_index, rng, 200);
}

TEST(SearchEnvironment, InsertRemoveCyclesStayBoundedAndExact) {
  // The rip-up soak: a thousand commit/remove cycles must not grow the
  // tables (periodic compaction), must keep per-source line records exact
  // (no leaked duplicates from corridor splits), and must leave behavior
  // identical to the never-touched base environment.
  std::mt19937_64 rng(23);
  const layout::Layout lay = corpus_layout(6);
  route::SearchEnvironment env(lay);
  const route::SearchEnvironment base(lay);
  const std::size_t base_obstacles = base.index().size();

  const std::vector<Segment> wire{{Point{20, 50}, Point{180, 50}},
                                  {Point{180, 50}, Point{180, 140}}};
  const int cycles = test::fuzz_iters(1000);
  for (int k = 0; k < cycles; ++k) {
    env.commit_route(static_cast<std::size_t>(k), wire, 2);
    ASSERT_TRUE(env.remove_route(static_cast<std::size_t>(k)));
    ASSERT_EQ(env.committed(), 0u) << "cycle " << k;
    // Tombstones may linger between compactions, but never unboundedly:
    // the compaction policy caps the table at roughly twice the live set.
    ASSERT_LE(env.index().size(), 2 * (base_obstacles + wire.size()) + 16)
        << "cycle " << k << ": tombstones escaped compaction";
    ASSERT_EQ(env.lines().lines().size(), 4 + 4 * env.index().size());
    ASSERT_EQ(env.lines().live_lines(), 4 + 4 * env.index().live_size());
  }
  expect_index_equivalent_behavior(env.index(), base.index(), rng, 300);
  expect_lines_equivalent(env.lines(), base.lines(), base.index(), rng, 300);
}

TEST(SearchEnvironment, UpdateFaultFlagsInvalidAndNextQueryRebuilds) {
  // The exception-safety contract: a throw mid-splice leaves the
  // environment flagged invalid, and the next accessor repairs it with a
  // full rebuild instead of answering from a half-spliced index.
  std::mt19937_64 rng(29);
  const layout::Layout lay = corpus_layout(8);
  route::SearchEnvironment env(lay);
  const std::vector<Segment> wire{{Point{15, 60}, Point{160, 60}},
                                  {Point{160, 60}, Point{160, 130}},
                                  {Point{160, 130}, Point{240, 130}}};

  route::SearchEnvironment::inject_update_fault_for_tests();
  EXPECT_THROW(env.commit_route(0, wire, 2), std::runtime_error);
  EXPECT_FALSE(env.valid());

  const std::size_t builds = route::SearchEnvironment::build_count();
  (void)env.index();  // the next query triggers the rebuild fallback
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds + 1);
  EXPECT_TRUE(env.valid());

  // Whatever prefix of the commit survived is on record: ripping the net
  // back out and comparing against a fresh base environment proves the
  // repair left a coherent, fully-removable state.
  env.remove_route(0);
  const route::SearchEnvironment fresh(lay);
  expect_index_equivalent_behavior(env.index(), fresh.index(), rng, 300);
  expect_lines_equivalent(env.lines(), fresh.lines(), fresh.index(), rng, 300);

  // Same contract on the removal side — and this time retry the mutation
  // *directly*, with no accessor in between: mutators must repair an
  // invalid environment before splicing (a naive retry would skip the
  // already-tombstoned halo and leave its line records live forever).
  env.commit_route(1, wire, 2);
  route::SearchEnvironment::inject_update_fault_for_tests();
  EXPECT_THROW((void)env.remove_route(1), std::runtime_error);
  EXPECT_FALSE(env.valid());
  EXPECT_TRUE(env.remove_route(1));  // repairs, then finishes the rip-up
  EXPECT_TRUE(env.valid());
  expect_index_equivalent_behavior(env.index(), fresh.index(), rng, 300);
  expect_lines_equivalent(env.lines(), fresh.lines(), fresh.index(), rng, 300);

  // And a commit retried directly after a failed commit: the partial
  // commit is on record, so the contract is remove-then-recommit.
  route::SearchEnvironment::inject_update_fault_for_tests();
  EXPECT_THROW(env.commit_route(2, wire, 2), std::runtime_error);
  EXPECT_FALSE(env.valid());
  EXPECT_THROW(env.commit_route(2, wire, 2), std::invalid_argument);
  EXPECT_TRUE(env.remove_route(2));
  env.commit_route(2, wire, 2);
  EXPECT_TRUE(env.valid());
  EXPECT_TRUE(env.remove_route(2));
  expect_index_equivalent_behavior(env.index(), fresh.index(), rng, 300);
}

TEST(SearchEnvironment, CopyDoesNotCountAsBuild) {
  const layout::Layout lay = corpus_layout(9);
  const route::SearchEnvironment env(lay);
  const std::size_t builds = route::SearchEnvironment::build_count();
  const route::SearchEnvironment copy = env;
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds);
  EXPECT_EQ(copy.index().size(), env.index().size());
}

// ------------------------------------------ sequential-mode differential

class SequentialDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SequentialDifferential, IncrementalRoutesBitIdenticalToPerNetRebuild) {
  const layout::Layout lay = corpus_layout(GetParam());
  ASSERT_TRUE(lay.valid());

  route::NetlistOptions opts;
  opts.mode = route::NetlistMode::kSequential;

  const auto want = test::reference_sequential(lay, opts);
  const auto got = route::NetlistRouter(lay).route_all(opts);
  expect_results_identical(got, want);

  // And through a cached (injected) environment — the serving-layer path.
  const route::SearchEnvironment env(lay);
  const std::size_t builds = route::SearchEnvironment::build_count();
  const auto cached = route::NetlistRouter(lay, env).route_all(opts);
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds)
      << "sequential mode must not rebuild when an environment is injected";
  expect_results_identical(cached, want);
}

INSTANTIATE_TEST_SUITE_P(FuzzCorpus, SequentialDifferential,
                         ::testing::ValuesIn(test::fuzz_seeds(41, 17, 6)));

// ------------------------------------------- rip-up-and-reroute differential

class RipupDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RipupDifferential, IncrementalRipupBitIdenticalToRebuildReference) {
  // The acceptance property: NetlistOptions::reroute, whose removals are
  // incremental tombstone updates, must reproduce — segments, wirelength,
  // stats — the reference that performs the same rip-up with from-scratch
  // environment rebuilds at every step, across the fuzz corpus.
  const std::uint64_t seed = GetParam();
  const layout::Layout lay = corpus_layout(seed);
  ASSERT_TRUE(lay.valid());

  std::mt19937_64 rng(seed * 977 + 5);
  std::vector<std::size_t> reroute;
  for (std::size_t i = 0; i < lay.nets().size(); ++i) {
    if (rng() % 3 == 0) reroute.push_back(i);
  }
  if (reroute.empty()) reroute.push_back(lay.nets().size() / 2);
  std::shuffle(reroute.begin(), reroute.end(), rng);

  route::NetlistOptions opts;
  opts.mode = route::NetlistMode::kSequential;
  opts.reroute = reroute;

  const auto want = test::reference_ripup(lay, opts, reroute);
  const auto got = route::NetlistRouter(lay).route_all(opts);
  expect_results_identical(got, want);

  // And through a cached (injected) environment — the REROUTE serve path.
  const route::SearchEnvironment env(lay);
  const std::size_t builds = route::SearchEnvironment::build_count();
  const auto cached = route::NetlistRouter(lay, env).route_all(opts);
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds)
      << "rip-up must stay incremental when an environment is injected";
  expect_results_identical(cached, want);
}

INSTANTIATE_TEST_SUITE_P(FuzzCorpus, RipupDifferential,
                         ::testing::ValuesIn(test::fuzz_seeds(43, 19, 6)));

TEST(RipupDifferential, WideHaloRipup) {
  // Wider halos force detours and failures; ripping up half the netlist
  // must still match the rebuild reference exactly.
  const layout::Layout lay = corpus_layout(2);
  route::NetlistOptions opts;
  opts.mode = route::NetlistMode::kSequential;
  opts.wire_halo = 4;
  for (std::size_t i = 0; i < lay.nets().size(); i += 2) {
    opts.reroute.push_back(i);
  }
  const auto want = test::reference_ripup(lay, opts, opts.reroute);
  const auto got = route::NetlistRouter(lay).route_all(opts);
  expect_results_identical(got, want);
}

TEST(SequentialDifferential, NonTrivialHaloAndOrder) {
  // Wider halos force detours/failures; a custom order exercises the
  // accounting replay.  Both must still match the reference exactly.
  const layout::Layout lay = corpus_layout(2);
  route::NetlistOptions opts;
  opts.mode = route::NetlistMode::kSequential;
  opts.wire_halo = 4;
  opts.order.resize(lay.nets().size());
  for (std::size_t i = 0; i < opts.order.size(); ++i) {
    opts.order[i] = opts.order.size() - 1 - i;
  }

  const auto want = test::reference_sequential(lay, opts);
  const auto got = route::NetlistRouter(lay).route_all(opts);
  expect_results_identical(got, want);
}

// ------------------------------------------- optimize-style rip/commit soak

class OptimizeSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizeSoak, RepeatedRipCommitPassesStayExactAndBounded) {
  // The OPTIMIZE engine's SearchEnvironment workload, distilled: route the
  // netlist once with keyed commits, then run many rip / re-route / commit
  // passes over rotating thirds of the netlist.  Every re-routed net must
  // come out bit-identical to the same search through a from-scratch
  // environment over the base cells plus the surviving halos, the tables
  // must stay bounded (the removals cross the dead >= max(16, live)
  // compaction threshold many times over), and the final environment must
  // be behaviorally indistinguishable from a fresh build.
  const std::uint64_t seed = GetParam();
  const layout::Layout lay = corpus_layout(seed);
  ASSERT_TRUE(lay.valid());
  std::mt19937_64 rng(seed * 31 + 7);
  constexpr geom::Coord kHalo = 1;
  const std::size_t n = lay.nets().size();
  const std::size_t base_obstacles = lay.obstacles().size();

  const auto route_one = [&](route::SearchEnvironment& e, std::size_t i) {
    for (const auto& pins : route::net_terminal_pins(lay, lay.nets()[i])) {
      for (const Point& p : pins) {
        if (!e.index().routable(p)) return route::NetRoute{};
      }
    }
    return route::SteinerNetRouter(e.index(), e.lines(), nullptr)
        .route_net(lay, lay.nets()[i], {});
  };

  route::SearchEnvironment env(lay);
  std::vector<route::NetRoute> routes(n);
  for (std::size_t i = 0; i < n; ++i) {
    routes[i] = route_one(env, i);
    if (routes[i].ok) env.commit_route(i, routes[i].segments, kHalo);
  }

  // From-scratch reference over the base cells plus every surviving halo.
  const auto fresh_env = [&]() {
    route::SearchEnvironment e(lay);
    for (std::size_t i = 0; i < n; ++i) {
      if (routes[i].ok) e.commit_route(i, routes[i].segments, kHalo);
    }
    return e;
  };

  std::size_t removed_halos = 0;
  std::size_t compactions = 0;
  const int passes = std::max(12, test::fuzz_iters(12));
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<std::size_t> victims;
    for (std::size_t i = 0; i < n; ++i) {
      if (routes[i].ok && (i + static_cast<std::size_t>(pass)) % 3 == 0) {
        victims.push_back(i);
      }
    }
    for (const std::size_t v : victims) {
      const std::size_t dead_before = env.index().dead_count();
      ASSERT_TRUE(env.remove_route(v)) << "pass " << pass << " net " << v;
      // A removal only adds tombstones; the count dropping means the
      // dead >= max(16, live) compaction policy fired mid-soak.
      if (env.index().dead_count() < dead_before) ++compactions;
      removed_halos += routes[v].segments.size();
      routes[v] = route::NetRoute{};
    }
    for (const std::size_t v : victims) {
      route::SearchEnvironment ref = fresh_env();
      const route::NetRoute want = route_one(ref, v);
      route::NetRoute got = route_one(env, v);
      ASSERT_EQ(got.ok, want.ok) << "pass " << pass << " net " << v;
      EXPECT_EQ(got.segments, want.segments) << "pass " << pass << " net "
                                             << v;
      EXPECT_EQ(got.wirelength, want.wirelength);
      EXPECT_EQ(got.stats.nodes_expanded, want.stats.nodes_expanded);
      if (got.ok) env.commit_route(v, got.segments, kHalo);
      routes[v] = std::move(got);
    }

    // Boundedness: tombstones may linger between compactions but the
    // table never exceeds roughly twice the live set, and the line set
    // tracks the obstacle table record for record.
    std::size_t live_halos = 0;
    for (const route::NetRoute& r : routes) {
      if (r.ok) live_halos += r.segments.size();
    }
    ASSERT_LE(env.index().size(), 2 * (base_obstacles + live_halos) + 16)
        << "pass " << pass << ": tombstones escaped compaction";
    ASSERT_EQ(env.lines().lines().size(), 4 + 4 * env.index().size());
    ASSERT_EQ(env.lines().live_lines(), 4 + 4 * env.index().live_size());
  }

  // The soak is only meaningful if it actually drove the compaction
  // machinery — enough halos ripped that the dead >= max(16, live)
  // trigger fired at least once.
  EXPECT_GE(compactions, 1u)
      << "soak never crossed the compaction threshold (removed "
      << removed_halos << " halos)";

  const route::SearchEnvironment ref = fresh_env();
  expect_index_equivalent_behavior(env.index(), ref.index(), rng, 200);
  expect_lines_equivalent(env.lines(), ref.lines(), ref.index(), rng, 200);
}

INSTANTIATE_TEST_SUITE_P(FuzzCorpus, OptimizeSoak,
                         ::testing::ValuesIn(test::fuzz_seeds(59, 23, 6)));

// ----------------------------------------------- parallel line construction

TEST(EscapeLineBuild, ParallelConstructionIsBitIdentical) {
  std::mt19937_64 rng(0xCAFE);
  // Large enough to exceed the auto-parallel threshold.
  const std::vector<Rect> rects = random_rects(rng, 600, 4000);
  const spatial::ObstacleIndex index(Rect{0, 0, 4000, 4000}, rects);
  const spatial::EscapeLineSet serial(index, 1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const spatial::EscapeLineSet parallel(index, threads);
    EXPECT_EQ(serial.lines(), parallel.lines()) << threads << " threads";
  }
  const spatial::EscapeLineSet auto_threads(index, 0);
  EXPECT_EQ(serial.lines(), auto_threads.lines());
}

}  // namespace
