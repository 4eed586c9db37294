// Free-space component labels (spatial::FreeSpaceComponents), scaled by
// GCR_FUZZ_ITERS:
//   - exactness: on random small integer floorplans (overlapping blocks,
//     blocks sharing an edge or a corner, blocks sticking out past the
//     boundary, degenerate blocks and boundaries) two points share a label
//     exactly when a flood fill of the free space connects them;
//   - incremental upkeep: after random insert/remove/compact sequences the
//     lazily rebuilt labels partition the points as a fresh index does;
//   - soundness for routing: whenever the labels separate a connection's
//     sources from its goals, exhaustive A* over GridlessSpace finds no
//     path, and GridlessRouter::route_set skips the search;
//   - a shared, refreshed index answers concurrent routing (TSan job).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/gridless_router.hpp"
#include "core/search_environment.hpp"
#include "core/steiner.hpp"
#include "fuzz_env.hpp"
#include "search/searcher.hpp"
#include "spatial/free_space.hpp"
#include "spatial/obstacle_index.hpp"
#include "workload/floorplan.hpp"
#include "workload/netgen.hpp"

namespace {

using namespace gcr;
using geom::Coord;
using geom::Point;
using geom::Rect;
using Label = spatial::FreeSpaceComponents::Label;
constexpr Label kNone = spatial::FreeSpaceComponents::kNone;

/// Ground truth on the doubled lattice: lattice node (u, v) stands for the
/// point (u/2, v/2) when both are even, an open unit edge when one is odd and
/// an open unit cell when both are.  With integer rectangles each such
/// element is wholly free or wholly blocked (blocked iff 2*xlo < u < 2*xhi
/// and 2*ylo < v < 2*yhi for some live block), and a free cell's sides are
/// free, so 4-connectivity on the lattice is connectivity of the free space.
class FloodFill {
 public:
  FloodFill(const Rect& boundary, const Rect& window,
            const std::vector<Rect>& blocks, const std::vector<char>& dead)
      : window_(window),
        w_(static_cast<std::size_t>(2 * (window.xhi - window.xlo) + 1)),
        h_(static_cast<std::size_t>(2 * (window.yhi - window.ylo) + 1)),
        comp_(w_ * h_, kBlocked) {
    for (std::size_t v = 0; v < h_; ++v) {
      for (std::size_t u = 0; u < w_; ++u) {
        const Coord du = 2 * window.xlo + static_cast<Coord>(u);
        const Coord dv = 2 * window.ylo + static_cast<Coord>(v);
        bool free = 2 * boundary.xlo <= du && du <= 2 * boundary.xhi &&
                    2 * boundary.ylo <= dv && dv <= 2 * boundary.yhi;
        for (std::size_t i = 0; free && i < blocks.size(); ++i) {
          const Rect& r = blocks[i];
          if (dead[i] == 0 && 2 * r.xlo < du && du < 2 * r.xhi &&
              2 * r.ylo < dv && dv < 2 * r.yhi) {
            free = false;
          }
        }
        if (free) comp_[v * w_ + u] = kUnseen;
      }
    }
    std::size_t next = 0;
    std::vector<std::size_t> stack;
    for (std::size_t start = 0; start < comp_.size(); ++start) {
      if (comp_[start] != kUnseen) continue;
      comp_[start] = next;
      stack.push_back(start);
      while (!stack.empty()) {
        const std::size_t at = stack.back();
        stack.pop_back();
        const std::size_t u = at % w_, v = at / w_;
        const auto visit = [&](std::size_t n) {
          if (comp_[n] == kUnseen) {
            comp_[n] = next;
            stack.push_back(n);
          }
        };
        if (u > 0) visit(at - 1);
        if (u + 1 < w_) visit(at + 1);
        if (v > 0) visit(at - w_);
        if (v + 1 < h_) visit(at + w_);
      }
      ++next;
    }
  }

  /// Component of the integer point \p p (inside the window), or kBlocked.
  [[nodiscard]] std::size_t component(const Point& p) const {
    const auto u = static_cast<std::size_t>(2 * (p.x - window_.xlo));
    const auto v = static_cast<std::size_t>(2 * (p.y - window_.ylo));
    return comp_[v * w_ + u];
  }

  static constexpr std::size_t kBlocked = static_cast<std::size_t>(-1);

 private:
  static constexpr std::size_t kUnseen = static_cast<std::size_t>(-2);
  Rect window_;
  std::size_t w_, h_;
  std::vector<std::size_t> comp_;
};

/// Checks that \p got and \p want induce the same partition of the window's
/// integer points, with "no label" (kNone / kBlocked) on the same points.
template <typename GotFn, typename WantFn, typename NoneT>
void expect_same_partition(const Rect& window, GotFn got, WantFn want,
                           NoneT want_none, const std::string& what) {
  std::map<Label, std::size_t> to_want;
  std::map<std::size_t, Label> to_got;
  for (Coord y = window.ylo; y <= window.yhi; ++y) {
    for (Coord x = window.xlo; x <= window.xhi; ++x) {
      const Point p{x, y};
      const Label g = got(p);
      const std::size_t w = want(p);
      const std::string at = what + " at (" + std::to_string(x) + "," +
                             std::to_string(y) + ")";
      ASSERT_EQ(g == kNone, w == want_none) << at;
      if (g == kNone) continue;
      const auto [gi, g_new] = to_want.emplace(g, w);
      ASSERT_EQ(gi->second, w) << "one label spans two components" << at;
      const auto [wi, w_new] = to_got.emplace(w, g);
      ASSERT_EQ(wi->second, g) << "one component carries two labels" << at;
    }
  }
}

/// Random small integer floorplan: coordinates come from a small range so
/// shared edges, shared corners and overlaps are common; some blocks stick
/// out past the boundary, some are degenerate.
struct Floorplan {
  Rect boundary;
  std::vector<Rect> blocks;
};

Rect random_block(std::mt19937_64& rng, const Rect& boundary) {
  std::uniform_int_distribution<Coord> x(boundary.xlo - 2, boundary.xhi + 2);
  std::uniform_int_distribution<Coord> y(boundary.ylo - 2, boundary.yhi + 2);
  return Rect{Point{x(rng), y(rng)}, Point{x(rng), y(rng)}};
}

Floorplan random_floorplan(std::mt19937_64& rng) {
  Floorplan f;
  std::uniform_int_distribution<Coord> origin(-3, 3);
  std::uniform_int_distribution<Coord> extent(0, 12);
  f.boundary.xlo = origin(rng);
  f.boundary.ylo = origin(rng);
  f.boundary.xhi = f.boundary.xlo + extent(rng);
  f.boundary.yhi = f.boundary.ylo + extent(rng);
  f.blocks.resize(rng() % 9);
  for (Rect& r : f.blocks) r = random_block(rng, f.boundary);
  return f;
}

Rect window_of(const Rect& boundary) { return boundary.inflated(2); }

TEST(FreeSpaceComponents, LabelsMatchFloodFillExactly) {
  std::mt19937_64 rng(20);
  const int cases = test::fuzz_iters(400);
  spatial::FreeSpaceComponents labels;  // reused: warm rebuilds
  for (int c = 0; c < cases; ++c) {
    const Floorplan f = random_floorplan(rng);
    std::vector<char> dead(f.blocks.size(), 0);
    for (char& d : dead) d = rng() % 5 == 0 ? 1 : 0;
    labels.build(f.boundary, f.blocks, dead);
    const Rect window = window_of(f.boundary);
    const FloodFill truth(f.boundary, window, f.blocks, dead);
    expect_same_partition(
        window, [&](const Point& p) { return labels.label(p); },
        [&](const Point& p) { return truth.component(p); },
        FloodFill::kBlocked, "case " + std::to_string(c));
    if (HasFatalFailure()) return;
  }
}

TEST(FreeSpaceComponents, EmptyAndDegenerateBoundaries) {
  spatial::FreeSpaceComponents labels;
  labels.build(Rect{}, {}, {});
  EXPECT_EQ(labels.label(Point{0, 0}), kNone);
  EXPECT_FALSE(labels.separated({Point{0, 0}}, {Point{1, 1}}));

  // A zero-width boundary is one vertical line, cut by a block through it.
  labels.build(Rect{5, 0, 5, 10}, {Rect{0, 4, 9, 6}}, {0});
  EXPECT_NE(labels.label(Point{5, 4}), kNone);
  EXPECT_EQ(labels.label(Point{5, 5}), kNone);
  EXPECT_NE(labels.label(Point{5, 4}), labels.label(Point{5, 6}));
  EXPECT_EQ(labels.label(Point{5, 0}), labels.label(Point{5, 4}));
  EXPECT_TRUE(labels.separated({Point{5, 0}}, {Point{5, 10}, Point{5, 7}}));
  EXPECT_FALSE(labels.separated({Point{5, 0}}, {Point{5, 10}, Point{5, 3}}));
  // Unlabelled points and empty sets prove nothing.
  EXPECT_FALSE(labels.separated({Point{5, 0}}, {Point{5, 5}}));
  EXPECT_FALSE(labels.separated({Point{5, 0}}, {}));
}

TEST(FreeSpaceComponents, IncrementalIndexMatchesFreshBuild) {
  std::mt19937_64 rng(21);
  const int cases = test::fuzz_iters(200) / 4 + 1;
  for (int c = 0; c < cases; ++c) {
    const Floorplan f = random_floorplan(rng);
    spatial::ObstacleIndex index(f.boundary, f.blocks);
    const Rect window = window_of(f.boundary);
    std::vector<Rect> live = f.blocks;  // mirror of the index's live set
    std::vector<std::size_t> slot(live.size());
    for (std::size_t i = 0; i < slot.size(); ++i) slot[i] = i;
    for (int step = 0; step < 24; ++step) {
      const unsigned op = rng() % 8;
      if (op < 4) {
        const Rect r = random_block(rng, f.boundary);
        slot.push_back(index.size());
        index.insert(r);
        live.push_back(r);
      } else if (op < 7 && !live.empty()) {
        const std::size_t at = rng() % live.size();
        ASSERT_TRUE(index.remove(slot[at]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        slot.erase(slot.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        const std::vector<std::size_t> remap = index.compact();
        for (std::size_t& s : slot) s = remap[s];
      }
      // Query only now and then, so one lazy rebuild covers a whole batch
      // of mutations.
      if (rng() % 3 != 0) continue;
      const spatial::ObstacleIndex fresh(f.boundary, live);
      expect_same_partition(
          window, [&](const Point& p) { return index.components().label(p); },
          [&](const Point& p) { return fresh.components().label(p); }, kNone,
          "case " + std::to_string(c) + " step " + std::to_string(step));
      if (HasFatalFailure()) return;
      for (Coord y = window.ylo; y <= window.yhi; ++y) {
        for (Coord x = window.xlo; x <= window.xhi; ++x) {
          ASSERT_EQ(index.components().label(Point{x, y}) != kNone,
                    index.routable(Point{x, y}));
        }
      }
    }
  }
}

layout::Layout fuzz_layout(std::uint64_t seed) {
  workload::FloorplanOptions fp;
  fp.seed = seed;
  fp.cell_count = 5 + seed % 8;
  fp.boundary = Rect{0, 0, 256, 256};
  fp.min_separation = 6;
  layout::Layout lay = workload::random_floorplan(fp);
  workload::PinGenOptions pins;
  pins.seed = seed + 1;
  workload::sprinkle_pins(lay, pins);
  workload::NetGenOptions ng;
  ng.seed = seed + 2;
  ng.net_count = 10;
  ng.max_terminals = 3;
  workload::generate_nets(lay, ng);
  return lay;
}

std::vector<Point> all_pins(const layout::Layout& lay) {
  std::vector<Point> pins;
  for (const layout::Net& net : lay.nets()) {
    for (const auto& terminal : route::net_terminal_pins(lay, net)) {
      pins.insert(pins.end(), terminal.begin(), terminal.end());
    }
  }
  return pins;
}

/// A routable point: a still-routable pin, else a random free point.
Point pick_point(std::mt19937_64& rng, const spatial::ObstacleIndex& index,
                 const std::vector<Point>& pins) {
  if (!pins.empty() && rng() % 4 != 0) {
    const Point p = pins[rng() % pins.size()];
    if (index.routable(p)) return p;
  }
  const Rect& b = index.boundary();
  std::uniform_int_distribution<Coord> px(b.xlo, b.xhi);
  std::uniform_int_distribution<Coord> py(b.ylo, b.yhi);
  for (int tries = 0; tries < 64; ++tries) {
    const Point p{px(rng), py(rng)};
    if (index.routable(p)) return p;
  }
  return Point{b.xlo, b.ylo};
}

TEST(FreeSpaceComponents, SeparatedConnectionsHaveNoPath) {
  // Sequential-routing corpus: keyed commits with wide halos wall pins in,
  // rip-ups open pockets again.  Every separated query is checked against
  // exhaustive A* in both successor modes; connected queries that A* still
  // fails would mean the probe graph misses part of the free space.
  std::size_t separated = 0, connected = 0, connected_unfound = 0;
  search::Searcher<route::GridlessSpace> searcher;
  for (const std::uint64_t seed : test::fuzz_seeds(31, 7, 6)) {
    const layout::Layout lay = fuzz_layout(seed);
    route::SearchEnvironment env(lay);
    const std::vector<Point> pins = all_pins(lay);
    std::mt19937_64 rng(seed * 6151 + 1);
    std::vector<std::size_t> committed;
    std::size_t next_id = 0;
    const int rounds = test::fuzz_iters(150) / 5 + 1;
    for (int round = 0; round < rounds; ++round) {
      const std::string where =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      const spatial::ObstacleIndex& index = env.index();
      const route::GridlessRouter router(index, env.lines());
      for (int q = 0; q < 4; ++q) {
        std::vector<Point> sources, targets;
        for (std::size_t i = 0, n = 1 + rng() % 3; i < n; ++i) {
          sources.push_back(pick_point(rng, index, pins));
        }
        for (std::size_t i = 0, n = 1 + rng() % 3; i < n; ++i) {
          targets.push_back(pick_point(rng, index, pins));
        }
        const bool apart = index.components().separated(sources, targets);
        std::vector<route::RouteState> starts;
        for (const Point& p : sources) starts.push_back(route::RouteState{p});
        search::SearchOptions opts;  // A*, no cap: a failure is exhaustive
        const route::GridlessSpace full(index, env.lines(), targets);
        const bool found = searcher.run(full, starts, opts).found;
        if (apart) {
          ++separated;
          ASSERT_FALSE(found) << where;
          const route::GridlessSpace sparse(index, env.lines(), targets,
                                            nullptr,
                                            route::SuccessorMode::kSparse);
          ASSERT_FALSE(searcher.run(sparse, starts, opts).found) << where;
          const route::Route skipped = router.route_set(sources, targets);
          ASSERT_FALSE(skipped.found) << where;
          ASSERT_EQ(skipped.stats.proved_unreachable, 1u) << where;
          ASSERT_EQ(skipped.stats.nodes_expanded, 0u) << where;
        } else {
          ++connected;
          if (!found) ++connected_unfound;
        }
      }
      if (!committed.empty() && rng() % 3 == 0) {
        const std::size_t at = rng() % committed.size();
        ASSERT_TRUE(env.remove_route(committed[at])) << where;
        committed.erase(committed.begin() + static_cast<std::ptrdiff_t>(at));
        continue;
      }
      const route::Route r = router.route(pick_point(rng, index, pins),
                                          pick_point(rng, index, pins));
      if (!r.found || r.points.size() < 2) continue;
      env.commit_route(next_id, r.segments(),
                       2 + static_cast<Coord>(rng() % 6));
      committed.push_back(next_id++);
    }
  }
  std::cout << "[ labels ] separated " << separated << ", connected "
            << connected << ", connected but unfound " << connected_unfound
            << "\n";
  RecordProperty("separated", static_cast<int>(separated));
  RecordProperty("connected_unfound", static_cast<int>(connected_unfound));
  // The corpus exercises the pre-check, and the probe graph reaches all of
  // each component.
  EXPECT_GT(separated, 0u);
  EXPECT_EQ(connected_unfound, 0u);
}

TEST(FreeSpaceComponents, SharedRefreshedIndexRoutesConcurrently) {
  // Sequential commits leave the labels stale; one components() call on the
  // owning thread refreshes them, after which the environment is read-only
  // and any number of threads may run the pre-check against it.
  const layout::Layout lay = fuzz_layout(77);
  route::SearchEnvironment env(lay);
  {
    const route::SteinerNetRouter seq(env.index(), env.lines());
    for (std::size_t i = 0; i < lay.nets().size(); ++i) {
      const route::NetRoute nr = seq.route_net(lay, lay.nets()[i]);
      if (nr.ok) env.commit_route(i, nr.segments, 4);
    }
  }
  (void)env.index().components();
  const route::SteinerNetRouter shared(env.index(), env.lines());
  std::vector<route::NetRoute> serial;
  for (const layout::Net& net : lay.nets()) {
    serial.push_back(shared.route_net(lay, net));
  }
  std::vector<std::vector<route::NetRoute>> got(4);
  std::vector<std::thread> pool;
  for (auto& out : got) {
    pool.emplace_back([&] {
      for (const layout::Net& net : lay.nets()) {
        out.push_back(shared.route_net(lay, net));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const auto& out : got) {
    ASSERT_EQ(out.size(), serial.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].ok, serial[i].ok);
      EXPECT_EQ(out[i].segments, serial[i].segments);
      EXPECT_EQ(out[i].stats.proved_unreachable,
                serial[i].stats.proved_unreachable);
    }
  }
}

}  // namespace
