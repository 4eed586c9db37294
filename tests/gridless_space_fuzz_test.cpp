// Differential fuzz of the pruned gridless successor rule, scaled by
// GCR_FUZZ_ITERS:
//   - a search over route::GridlessSpace (no straight re-probe; the searcher
//     skips states a closed twin or start covers) against the same search
//     over the unpruned reference space (tests/reference_gridless_space.hpp)
//     on random layouts, across sequential commits and remove_route
//     rip-ups, every strategy, every cost model and both SuccessorModes:
//     found, cost, path, expansions, reopenings, the OPEN high-water mark and
//     the abort flag must be equal, and the pruned search may generate no
//     more successors;
//   - the searcher's indexed OPEN heap against the lazy-deletion heap it
//     replaced (tests/reference_searcher.hpp), on the same queries: under
//     the same tie rule every search decision must be equal, and under the
//     historical FIFO tie rule whether a goal is reached and, for
//     admissible strategies, at what cost; the same on the Lee–Moore grid
//     space over the same layouts;
//   - the CostModel contract the pruning relies on (cost_model.hpp):
//     penalties are subadditive along a straight probe and depend on the
//     incoming direction only through whether the move bends;
//   - the run memo behind GridlessSpace's rays, successor list by successor
//     list against the reference: states in random order (run ends and
//     hugging points included), two spaces before and after a commit
//     interleaved on one thread, and two threads probing at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/gridless_router.hpp"
#include "core/search_environment.hpp"
#include "core/steiner.hpp"
#include "fuzz_env.hpp"
#include "grid/lee_moore.hpp"
#include "reference_gridless_space.hpp"
#include "reference_searcher.hpp"
#include "search/searcher.hpp"
#include "workload/floorplan.hpp"
#include "workload/netgen.hpp"

namespace {

using namespace gcr;
using geom::Coord;
using geom::Dir;
using geom::Point;
using geom::Rect;
using route::RouteState;
using search::SearchOptions;
using search::Strategy;

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

/// Cost models under test, index 0 = none (pure wirelength).  Region-shaped
/// models get random regions, so edges inside, across and along their rims
/// all occur.
struct CostModels {
  std::vector<std::shared_ptr<const route::CostModel>> models;
  std::vector<std::string> names;

  CostModels(std::mt19937_64& rng, const Rect& b) {
    std::uniform_int_distribution<Coord> px(b.xlo, b.xhi);
    std::uniform_int_distribution<Coord> py(b.ylo, b.yhi);
    std::uniform_int_distribution<geom::Cost> weight(0, 300);
    const auto region = [&] {
      return Rect{Point{px(rng), py(rng)}, Point{px(rng), py(rng)}};
    };
    auto bend = std::make_shared<route::BendCost>(1 + weight(rng) % 63);
    auto corner =
        std::make_shared<route::InvertedCornerCost>(1 + weight(rng) % 63);
    auto regions = std::make_shared<route::RegionPenaltyCost>();
    for (int i = 0; i < 3; ++i) regions->add_region(region(), weight(rng));
    auto history = std::make_shared<route::HistoryCost>(weight(rng) % 16);
    for (int i = 0; i < 3; ++i) {
      history->add_region(region(), weight(rng), weight(rng) % 8);
    }
    auto all = std::make_shared<route::CompositeCost>();
    all->add(bend);
    all->add(corner);
    all->add(regions);
    all->add(history);
    models = {nullptr, bend, corner, regions, history, all};
    names = {"none", "bend", "inverted-corner", "region", "history",
             "composite"};
  }
};

constexpr Strategy kStrategies[] = {
    Strategy::kAStar,      Strategy::kExhaustive,   Strategy::kBestFirst,
    Strategy::kGreedy,     Strategy::kBreadthFirst, Strategy::kDepthFirst};

/// Runs one query over both spaces with warm searchers and compares.
class Differ {
 public:
  /// Sum of generated successors, pruned and reference, over all queries.
  std::size_t generated = 0;
  std::size_t reference_generated = 0;

  void check(const route::SearchEnvironment& env,
             const std::vector<Point>& sources,
             const std::vector<Point>& targets, const route::CostModel* cost,
             route::SuccessorMode mode, const SearchOptions& opts,
             const std::string& what) {
    const route::GridlessSpace space(env.index(), env.lines(), targets, cost,
                                     mode);
    const test::ReferenceGridlessSpace reference(env.index(), env.lines(),
                                                 targets, cost, mode);
    std::vector<RouteState> starts;
    for (const Point& p : sources) starts.push_back(RouteState{p});
    const auto got = pruned_.run(space, starts, opts);
    const auto want = reference_.run(reference, starts, opts);
    ASSERT_EQ(got.found, want.found) << what;
    ASSERT_EQ(got.cost, want.cost) << what;
    ASSERT_EQ(got.path, want.path) << what;
    ASSERT_EQ(got.stats.nodes_expanded, want.stats.nodes_expanded) << what;
    ASSERT_EQ(got.stats.nodes_reopened, want.stats.nodes_reopened) << what;
    ASSERT_EQ(got.stats.max_open_size, want.stats.max_open_size) << what;
    ASSERT_EQ(got.stats.aborted, want.stats.aborted) << what;
    ASSERT_LE(got.stats.nodes_generated, want.stats.nodes_generated) << what;
    generated += got.stats.nodes_generated;
    reference_generated += want.stats.nodes_generated;

    const auto lazy = lazy_.run(space, starts, opts);
    ASSERT_EQ(test::order_mismatch(got, lazy), "") << what;
    const auto fifo = fifo_.run(space, starts, opts);
    ASSERT_EQ(test::tie_rule_mismatch(got, fifo, opts.strategy), "") << what;
  }

 private:
  search::Searcher<route::GridlessSpace> pruned_;
  search::Searcher<test::ReferenceGridlessSpace> reference_;
  test::ReferenceSearcher<route::GridlessSpace, test::LargerGTie> lazy_;
  test::ReferenceSearcher<route::GridlessSpace, test::FifoTie> fifo_;
};

/// A routable point: a pin when \p pins has one that is still routable,
/// otherwise a random free point (or a boundary corner on a full layout).
Point pick_point(std::mt19937_64& rng, const spatial::ObstacleIndex& index,
                 const std::vector<Point>& pins) {
  if (!pins.empty() && rng() % 3 != 0) {
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

/// One random query: 1-3 sources, 1-3 targets, a random strategy, cost
/// model and successor mode.
void random_query(std::mt19937_64& rng, const route::SearchEnvironment& env,
                  const std::vector<Point>& pins, const CostModels& costs,
                  Differ& differ, const std::string& where) {
  std::vector<Point> sources, targets;
  for (std::size_t i = 0, n = 1 + rng() % 3; i < n; ++i) {
    sources.push_back(pick_point(rng, env.index(), pins));
  }
  for (std::size_t i = 0, n = 1 + rng() % 3; i < n; ++i) {
    targets.push_back(pick_point(rng, env.index(), pins));
  }
  const std::size_t model = rng() % costs.models.size();
  const route::SuccessorMode mode = rng() % 4 == 0
                                        ? route::SuccessorMode::kSparse
                                        : route::SuccessorMode::kFull;
  SearchOptions opts;
  opts.strategy = kStrategies[rng() % std::size(kStrategies)];
  const bool blind = opts.strategy == Strategy::kBreadthFirst ||
                     opts.strategy == Strategy::kDepthFirst;
  // Blind searches need a cap on these layouts; ordered ones get one now
  // and then so the abort path is compared too.
  if (blind || rng() % 8 == 0) opts.max_expansions = 1 + rng() % 3000;
  if (opts.strategy == Strategy::kDepthFirst) opts.depth_limit = 1 + rng() % 12;
  differ.check(env, sources, targets, costs.models[model].get(), mode, opts,
               where + " strategy " +
                   std::string(search::to_string(opts.strategy)) +
                   " cost " + costs.names[model] + " mode " +
                   (mode == route::SuccessorMode::kFull ? "full" : "sparse"));
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

class GridlessSpaceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridlessSpaceFuzz, PrunedSearchMatchesReferenceOnCells) {
  const std::uint64_t seed = GetParam();
  const layout::Layout lay = fuzz_layout(seed);
  const route::SearchEnvironment env(lay);
  const std::vector<Point> pins = all_pins(lay);
  std::mt19937_64 rng(seed * 7919 + 3);
  const CostModels costs(rng, lay.boundary());
  Differ differ;
  const int queries = test::fuzz_iters(150);
  for (int q = 0; q < queries; ++q) {
    random_query(rng, env, pins, costs, differ,
                 "seed " + std::to_string(seed) + " query " +
                     std::to_string(q));
    if (HasFatalFailure()) return;
  }
  // The pruning is not vacuous: over a whole seed it drops successors.
  EXPECT_LT(differ.generated, differ.reference_generated);
}

TEST_P(GridlessSpaceFuzz, PrunedSearchMatchesReferenceAcrossCommitsAndRipUps) {
  const std::uint64_t seed = GetParam();
  const layout::Layout lay = fuzz_layout(seed + 100);
  route::SearchEnvironment env(lay);
  const std::vector<Point> pins = all_pins(lay);
  std::mt19937_64 rng(seed * 104729 + 5);
  const CostModels costs(rng, lay.boundary());
  Differ differ;
  std::vector<std::size_t> committed;
  std::size_t next_id = 0;
  const int rounds = test::fuzz_iters(150) / 5 + 1;
  for (int round = 0; round < rounds; ++round) {
    const std::string where = "seed " + std::to_string(seed) + " round " +
                              std::to_string(round) + " (" +
                              std::to_string(env.committed()) + " halos)";
    for (int q = 0; q < 4; ++q) {
      random_query(rng, env, pins, costs, differ, where);
      if (HasFatalFailure()) return;
    }
    // Commit a freshly routed wire (sequential-mode halos), or rip one up.
    if (!committed.empty() && rng() % 3 == 0) {
      const std::size_t at = rng() % committed.size();
      ASSERT_TRUE(env.remove_route(committed[at])) << where;
      committed.erase(committed.begin() + static_cast<std::ptrdiff_t>(at));
      continue;
    }
    const route::GridlessRouter router(env.index(), env.lines());
    const Point a = pick_point(rng, env.index(), pins);
    const Point b = pick_point(rng, env.index(), pins);
    const route::Route r = router.route(a, b);
    if (!r.found || r.points.size() < 2) continue;
    env.commit_route(next_id, r.segments(), 1 + static_cast<Coord>(rng() % 3));
    committed.push_back(next_id++);
  }
  EXPECT_LE(differ.generated, differ.reference_generated);
}

TEST_P(GridlessSpaceFuzz, IndexedHeapMatchesLazyHeapOnTheGrid) {
  // Unit-cost grid moves tie at every f, the case the tie rule is about.
  const std::uint64_t seed = GetParam();
  const layout::Layout lay = fuzz_layout(seed + 300);
  const route::SearchEnvironment env(lay);
  const grid::GridGraph graph(env.index(), 4);
  const std::vector<Point> pins = all_pins(lay);
  std::mt19937_64 rng(seed * 7727 + 13);
  search::Searcher<grid::GridRouteSpace> indexed;
  test::ReferenceSearcher<grid::GridRouteSpace, test::LargerGTie> lazy;
  test::ReferenceSearcher<grid::GridRouteSpace, test::FifoTie> fifo;
  const auto snapped = [&] {
    const Point p = pick_point(rng, env.index(), pins);
    return graph.snap(p).value_or(graph.nearest(p));
  };
  const int queries = test::fuzz_iters(150) / 3 + 1;
  for (int q = 0; q < queries; ++q) {
    std::vector<grid::GridPoint> starts, goals;
    for (std::size_t i = 0, n = 1 + rng() % 3; i < n; ++i) {
      starts.push_back(snapped());
    }
    for (std::size_t i = 0, n = 1 + rng() % 2; i < n; ++i) {
      goals.push_back(snapped());
    }
    const grid::GridRouteSpace space(graph, goals);
    SearchOptions opts;
    opts.strategy = kStrategies[rng() % std::size(kStrategies)];
    if (rng() % 8 == 0) opts.max_expansions = 1 + rng() % 2000;
    const std::string what = "seed " + std::to_string(seed) + " query " +
                             std::to_string(q) + " strategy " +
                             std::string(search::to_string(opts.strategy));
    const auto got = indexed.run(space, starts, opts);
    ASSERT_EQ(test::order_mismatch(got, lazy.run(space, starts, opts)), "")
        << what;
    ASSERT_EQ(test::tie_rule_mismatch(got, fifo.run(space, starts, opts),
                                      opts.strategy),
              "")
        << what;
  }
}

/// A random probe on \p index: a from-state (any incoming direction, or a
/// start), a move and the stop of its ray, so landing points drawn up to
/// the stop are edges the space could price.  Returns false when the ray
/// has zero extent.
bool random_edge(std::mt19937_64& rng, const spatial::ObstacleIndex& index,
                 const std::vector<Point>& pins, RouteState& from, Dir& move,
                 Coord& stop) {
  from.p = pick_point(rng, index, pins);
  from.in_dir = static_cast<std::uint8_t>(rng() % 5);  // kNoDir included
  move = geom::kAllDirs[rng() % 4];
  stop = index.trace(from.p, move).stop;
  return stop != from.p.along(axis_of(move));
}

/// Point at coordinate \p c along the move's axis from \p p.
Point along(Point p, Dir move, Coord c) {
  p.along(axis_of(move)) = c;
  return p;
}

TEST_P(GridlessSpaceFuzz, CostModelsKeepThePruningContract) {
  const std::uint64_t seed = GetParam();
  const layout::Layout lay = fuzz_layout(seed + 200);
  route::SearchEnvironment env(lay);
  const std::vector<Point> pins = all_pins(lay);
  std::mt19937_64 rng(seed * 15485863 + 11);
  const CostModels costs(rng, lay.boundary());
  // Commit one wire and rip another up so the inverted-corner test sees
  // halo rims and tombstones too.
  {
    const route::GridlessRouter router(env.index(), env.lines());
    for (std::size_t id = 0; id < 2; ++id) {
      const route::Route r = router.route(pick_point(rng, env.index(), pins),
                                          pick_point(rng, env.index(), pins));
      if (r.found && r.points.size() >= 2) env.commit_route(id, r.segments(), 2);
    }
    env.remove_route(0);
  }
  const spatial::ObstacleIndex& index = env.index();
  const int edges = test::fuzz_iters(300);
  for (std::size_t m = 1; m < costs.models.size(); ++m) {
    const route::CostModel& cost = *costs.models[m];
    const auto pen = [&](RouteState from, Dir move, Point to) {
      return cost.penalty(route::EdgeContext{index, from, move, to});
    };
    for (int e = 0; e < edges; ++e) {
      RouteState a;
      Dir move = Dir::kEast;
      Coord stop = 0;
      if (!random_edge(rng, index, pins, a, move, stop)) continue;
      const Coord origin = a.p.along(axis_of(move));
      const Coord lo = std::min(origin, stop), hi = std::max(origin, stop);
      std::uniform_int_distribution<Coord> on_ray(lo, hi);
      Coord b = on_ray(rng), c = on_ray(rng);
      // Order origin -> b -> c in travel direction, b strictly past origin.
      if (sign_of(move) * (b - c) > 0) std::swap(b, c);
      if (b == origin) continue;
      const Point pb = along(a.p, move, b), pc = along(a.p, move, c);
      const std::string what = costs.names[m] + " from " +
                               std::to_string(a.p.x) + "," +
                               std::to_string(a.p.y) + " in " +
                               std::to_string(a.in_dir) + " move " +
                               std::to_string(static_cast<int>(move));
      // (a) Subadditive along a straight line: the continuation from b
      // arrives heading `move`.
      const RouteState at_b{pb, static_cast<std::uint8_t>(move)};
      ASSERT_LE(pen(a, move, pc), pen(a, move, pb) + pen(at_b, move, pc))
          << what;
      // (b) The incoming direction matters only through bending, and a
      // start never pays more than any arrival.
      RouteState other = a;
      other.in_dir = static_cast<std::uint8_t>(rng() % 4);
      const auto bends = [&](const RouteState& s) {
        return axis_of(static_cast<Dir>(s.in_dir)) != axis_of(move);
      };
      if (a.in_dir != route::kNoDir && bends(a) == bends(other)) {
        ASSERT_EQ(pen(a, move, pc), pen(other, move, pc)) << what;
      }
      const RouteState start{a.p, route::kNoDir};
      ASSERT_LE(pen(start, move, pc), pen(other, move, pc)) << what;
    }
  }
}

// ------------------------------------------------------- the run memo
//
// GridlessSpace answers rays from a per-thread memo of the free runs it has
// probed.  These cases compare its successors, state by state, with the
// reference space, which traces every ray itself, in orders built to catch
// a memo that answers for the wrong run, the wrong space or the wrong
// thread.

/// Expects \p space's successors of \p s to be the reference's, less the
/// straight-on ray the space prunes (same emission order).  Returns a
/// description of the first difference, or "".
std::string successors_mismatch(const route::GridlessSpace& space,
                                const test::ReferenceGridlessSpace& reference,
                                const RouteState& s) {
  std::vector<search::Successor<RouteState>> got, want;
  space.successors(s, got);
  reference.successors(s, want);
  if (s.in_dir != route::kNoDir) {
    const geom::Axis in = axis_of(static_cast<Dir>(s.in_dir));
    std::erase_if(want, [in](const search::Successor<RouteState>& w) {
      return axis_of(static_cast<Dir>(w.state.in_dir)) == in;
    });
  }
  const std::string at = "state (" + std::to_string(s.p.x) + "," +
                         std::to_string(s.p.y) + ") in " +
                         std::to_string(s.in_dir);
  if (got.size() != want.size()) {
    return at + ": " + std::to_string(got.size()) + " successors, want " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].state != want[i].state || got[i].cost != want[i].cost) {
      return at + ": successor " + std::to_string(i) + " differs";
    }
  }
  return "";
}

/// Routable states that stress the memo: random free points, pins, and the
/// two ends of each one's free runs (hugging points on a blocker or the
/// boundary), each with every incoming direction and as a start.
std::vector<RouteState> memo_states(std::mt19937_64& rng,
                                    const spatial::ObstacleIndex& index,
                                    const std::vector<Point>& pins,
                                    int points) {
  std::vector<RouteState> out;
  for (int i = 0; i < points; ++i) {
    const Point p = pick_point(rng, index, pins);
    std::vector<Point> at{p};
    for (const Dir d : geom::kAllDirs) {
      Point end = p;
      end.along(axis_of(d)) = index.trace(p, d).stop;
      at.push_back(end);
    }
    for (const Point& q : at) {
      for (std::uint8_t in = 0; in <= route::kNoDir; ++in) {
        out.push_back(RouteState{q, in});
      }
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

TEST_P(GridlessSpaceFuzz, RunMemoAnswersEveryStateOrder) {
  const std::uint64_t seed = GetParam();
  const layout::Layout lay = fuzz_layout(seed + 400);
  route::SearchEnvironment env(lay);
  const std::vector<Point> pins = all_pins(lay);
  std::mt19937_64 rng(seed * 2654435761u + 17);
  // A few committed halos, so runs end on wire halos as well as cells.
  const route::GridlessRouter router(env.index(), env.lines());
  for (std::size_t id = 0; id < 3; ++id) {
    const route::Route r = router.route(pick_point(rng, env.index(), pins),
                                        pick_point(rng, env.index(), pins));
    if (r.found && r.points.size() >= 2) env.commit_route(id, r.segments(), 2);
  }
  const std::vector<Point> goals{pick_point(rng, env.index(), pins),
                                 pick_point(rng, env.index(), pins)};
  for (const route::SuccessorMode mode :
       {route::SuccessorMode::kFull, route::SuccessorMode::kSparse}) {
    const route::GridlessSpace space(env.index(), env.lines(), goals, nullptr,
                                     mode);
    const test::ReferenceGridlessSpace reference(env.index(), env.lines(),
                                                 goals, nullptr, mode);
    // Every state twice: the second pass answers from recorded runs only.
    const std::vector<RouteState> states =
        memo_states(rng, env.index(), pins, test::fuzz_iters(150) / 5 + 1);
    for (int pass = 0; pass < 2; ++pass) {
      for (const RouteState& s : states) {
        ASSERT_EQ(successors_mismatch(space, reference, s), "")
            << "seed " << seed << " pass " << pass;
      }
    }
  }
}

TEST_P(GridlessSpaceFuzz, RunMemoKeepsSpacesApart) {
  // Two spaces over the environment before and after a commit, queried
  // alternately on one thread with the same states: a run recorded before
  // the commit runs through the new halo, so reading it for the later
  // space would emit landing points past the halo's edge.
  const std::uint64_t seed = GetParam();
  const layout::Layout lay = fuzz_layout(seed + 500);
  const route::SearchEnvironment before(lay);
  route::SearchEnvironment after = before;
  const std::vector<Point> pins = all_pins(lay);
  std::mt19937_64 rng(seed * 40503 + 29);
  std::size_t committed = 0;
  for (int tries = 0; tries < 16 && committed < 3; ++tries) {
    const route::GridlessRouter router(after.index(), after.lines());
    const route::Route r = router.route(pick_point(rng, after.index(), pins),
                                        pick_point(rng, after.index(), pins));
    if (!r.found || r.points.size() < 2) continue;
    after.commit_route(committed++, r.segments(), 3);
  }
  ASSERT_GT(committed, 0u) << "seed " << seed;
  const std::vector<Point> goals{pick_point(rng, after.index(), pins)};
  const route::GridlessSpace early(before.index(), before.lines(), goals);
  const route::GridlessSpace late(after.index(), after.lines(), goals);
  const test::ReferenceGridlessSpace early_ref(before.index(),
                                               before.lines(), goals);
  const test::ReferenceGridlessSpace late_ref(after.index(), after.lines(),
                                              goals);
  // Points free after the commit are free before it too.
  const std::vector<RouteState> states =
      memo_states(rng, after.index(), pins, test::fuzz_iters(150) / 5 + 1);
  for (const RouteState& s : states) {
    ASSERT_EQ(successors_mismatch(early, early_ref, s), "") << "before";
    ASSERT_EQ(successors_mismatch(late, late_ref, s), "") << "after";
  }
  // Whole searches, interleaved the same way.
  search::Searcher<route::GridlessSpace> searcher;
  search::Searcher<test::ReferenceGridlessSpace> reference;
  for (int q = 0; q < test::fuzz_iters(150) / 10 + 1; ++q) {
    const std::vector<RouteState> starts{
        RouteState{pick_point(rng, after.index(), pins)}};
    const bool first_early = rng() % 2 == 0;
    for (int k = 0; k < 2; ++k) {
      const bool is_early = (k == 0) == first_early;
      const auto got = is_early ? searcher.run(early, starts, {})
                                : searcher.run(late, starts, {});
      const auto want = is_early ? reference.run(early_ref, starts, {})
                                 : reference.run(late_ref, starts, {});
      ASSERT_EQ(got.found, want.found) << "query " << q;
      ASSERT_EQ(got.cost, want.cost) << "query " << q;
      ASSERT_EQ(got.path, want.path) << "query " << q;
    }
  }
}

TEST_P(GridlessSpaceFuzz, RunMemoIsPerThread) {
  // Two threads probe two spaces over different environments at once;
  // each thread's memo must hold only its own space's runs.
  const std::uint64_t seed = GetParam();
  const layout::Layout lay_a = fuzz_layout(seed + 600);
  const layout::Layout lay_b = fuzz_layout(seed + 700);
  const route::SearchEnvironment env_a(lay_a);
  const route::SearchEnvironment env_b(lay_b);
  std::string mismatch_a, mismatch_b;
  const auto probe = [](const route::SearchEnvironment& env,
                        const layout::Layout& lay, std::uint64_t rng_seed,
                        std::string& mismatch) {
    std::mt19937_64 rng(rng_seed);
    const std::vector<Point> pins = all_pins(lay);
    const std::vector<Point> goals{pick_point(rng, env.index(), pins)};
    const route::GridlessSpace space(env.index(), env.lines(), goals);
    const test::ReferenceGridlessSpace reference(env.index(), env.lines(),
                                                 goals);
    for (const RouteState& s : memo_states(rng, env.index(), pins,
                                           test::fuzz_iters(150) / 5 + 1)) {
      mismatch = successors_mismatch(space, reference, s);
      if (!mismatch.empty()) return;
    }
  };
  std::thread a(probe, std::cref(env_a), std::cref(lay_a), seed * 3 + 1,
                std::ref(mismatch_a));
  std::thread b(probe, std::cref(env_b), std::cref(lay_b), seed * 3 + 2,
                std::ref(mismatch_b));
  a.join();
  b.join();
  EXPECT_EQ(mismatch_a, "") << "seed " << seed;
  EXPECT_EQ(mismatch_b, "") << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridlessSpaceFuzz,
                         ::testing::ValuesIn(test::fuzz_seeds(1, 1, 4)));

}  // namespace
