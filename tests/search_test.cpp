// Unit tests for the generic state-space search engine: the paper's OPEN/
// CLOSED machinery, all five strategies, reopening with parent re-pointing,
// and multi-source seeding.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "search/searcher.hpp"

namespace {

using namespace gcr;
using search::SearchOptions;
using search::Strategy;
using search::Successor;

/// A tiny explicit weighted digraph with string states.
struct GraphSpace {
  using State = std::string;

  std::map<std::string, std::vector<Successor<std::string>>> edges;
  std::map<std::string, geom::Cost> h;  // optional heuristic values
  std::string goal;

  void successors(const State& s, std::vector<Successor<State>>& out) const {
    const auto it = edges.find(s);
    if (it != edges.end()) out = it->second;
  }
  [[nodiscard]] geom::Cost heuristic(const State& s) const {
    const auto it = h.find(s);
    return it == h.end() ? 0 : it->second;
  }
  [[nodiscard]] bool is_goal(const State& s) const { return s == goal; }
};

/// Diamond graph: s->a(1), s->b(4), a->t(5), b->t(1); optimal s-b-t = 5.
GraphSpace diamond() {
  GraphSpace g;
  g.edges["s"] = {{"a", 1}, {"b", 4}};
  g.edges["a"] = {{"t", 5}};
  g.edges["b"] = {{"t", 1}};
  g.goal = "t";
  return g;
}

TEST(Searcher, BestFirstFindsMinimalCost) {
  const GraphSpace g = diamond();
  const auto r = search::find_path(g, std::string("s"),
                                   SearchOptions{.strategy = Strategy::kBestFirst});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cost, 5);
  EXPECT_EQ(r.path, (std::vector<std::string>{"s", "b", "t"}));
}

TEST(Searcher, AStarFindsMinimalCostWithAdmissibleHeuristic) {
  GraphSpace g = diamond();
  g.h = {{"s", 5}, {"a", 4}, {"b", 1}, {"t", 0}};  // admissible lower bounds
  const auto r = search::find_path(g, std::string("s"),
                                   SearchOptions{.strategy = Strategy::kAStar});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cost, 5);
}

TEST(Searcher, ExhaustiveDrainsOpenAndFindsOptimum) {
  const GraphSpace g = diamond();
  const auto r = search::find_path(
      g, std::string("s"), SearchOptions{.strategy = Strategy::kExhaustive});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cost, 5);
  // Exhaustive expands every non-goal node: s, a, b.
  EXPECT_EQ(r.stats.nodes_expanded, 3u);
}

TEST(Searcher, BlindSearchesFindSomePathNotNecessarilyOptimal) {
  const GraphSpace g = diamond();
  for (const Strategy s : {Strategy::kDepthFirst, Strategy::kBreadthFirst}) {
    const auto r =
        search::find_path(g, std::string("s"), SearchOptions{.strategy = s});
    ASSERT_TRUE(r.found) << to_string(s);
    EXPECT_GE(r.cost, 5) << to_string(s);
    EXPECT_EQ(r.path.front(), "s");
    EXPECT_EQ(r.path.back(), "t");
  }
}

TEST(Searcher, GreedyFollowsHeuristicOnly) {
  GraphSpace g = diamond();
  // Mislead greedy: a looks closer than b.
  g.h = {{"s", 2}, {"a", 1}, {"b", 100}, {"t", 0}};
  const auto r = search::find_path(g, std::string("s"),
                                   SearchOptions{.strategy = Strategy::kGreedy});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cost, 6);  // took the s-a-t detour
}

TEST(Searcher, ReopensClosedNodeOnShorterPath) {
  // With an inconsistent heuristic A* can close a node via a longer path
  // first; the paper requires moving it back to OPEN and re-pointing.
  GraphSpace g;
  g.edges["s"] = {{"a", 10}, {"b", 1}};
  g.edges["a"] = {{"t", 1}};
  g.edges["b"] = {{"a", 2}};
  g.goal = "t";
  // h(b) chosen so b is expanded after a closes but before the goal pops
  // (f(a)=10 ties f(b)=10; FIFO tie-break expands a first, then t enters
  // OPEN at f=11, then b expands at f=10 and reveals the shortcut to a).
  g.h = {{"s", 0}, {"a", 0}, {"b", 9}, {"t", 0}};
  const auto r = search::find_path(g, std::string("s"),
                                   SearchOptions{.strategy = Strategy::kAStar});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cost, 4);  // s-b-a-t
  EXPECT_EQ(r.path, (std::vector<std::string>{"s", "b", "a", "t"}));
  EXPECT_GE(r.stats.nodes_reopened, 1u);
}

TEST(Searcher, StartIsGoal) {
  GraphSpace g = diamond();
  g.goal = "s";
  const auto r = search::find_path(g, std::string("s"), SearchOptions{});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cost, 0);
  EXPECT_EQ(r.path, (std::vector<std::string>{"s"}));
}

TEST(Searcher, UnreachableGoalReportsNotFound) {
  GraphSpace g = diamond();
  g.goal = "nowhere";
  for (const Strategy s :
       {Strategy::kDepthFirst, Strategy::kBreadthFirst, Strategy::kBestFirst,
        Strategy::kAStar, Strategy::kExhaustive}) {
    const auto r =
        search::find_path(g, std::string("s"), SearchOptions{.strategy = s});
    EXPECT_FALSE(r.found) << to_string(s);
  }
}

TEST(Searcher, MultiSourceSeedsAllStarts) {
  GraphSpace g;
  g.edges["far"] = {{"mid", 10}};
  g.edges["mid"] = {{"t", 10}};
  g.edges["near"] = {{"t", 1}};
  g.goal = "t";
  search::Searcher<GraphSpace> searcher;
  const auto r = searcher.run(g, {"far", "near"},
                              SearchOptions{.strategy = Strategy::kBestFirst});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cost, 1);
  EXPECT_EQ(r.path.front(), "near");
}

TEST(Searcher, DepthLimitCutsDeepBranches) {
  // Chain s -> c1 -> c2 -> ... -> t of length 5; depth limit 3 must fail,
  // limit 5 must succeed.
  GraphSpace g;
  g.edges["s"] = {{"c1", 1}};
  g.edges["c1"] = {{"c2", 1}};
  g.edges["c2"] = {{"c3", 1}};
  g.edges["c3"] = {{"c4", 1}};
  g.edges["c4"] = {{"t", 1}};
  g.goal = "t";
  const auto fail = search::find_path(
      g, std::string("s"),
      SearchOptions{.strategy = Strategy::kDepthFirst, .depth_limit = 3});
  EXPECT_FALSE(fail.found);
  const auto ok = search::find_path(
      g, std::string("s"),
      SearchOptions{.strategy = Strategy::kDepthFirst, .depth_limit = 5});
  EXPECT_TRUE(ok.found);
}

TEST(Searcher, MaxExpansionsAborts) {
  // Infinite-ish chain graph via a long line.
  GraphSpace g;
  for (int i = 0; i < 1000; ++i) {
    g.edges["n" + std::to_string(i)] = {{"n" + std::to_string(i + 1), 1}};
  }
  g.goal = "n1000";
  const auto r = search::find_path(
      g, std::string("n0"),
      SearchOptions{.strategy = Strategy::kBestFirst, .max_expansions = 10});
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.stats.aborted);
}

TEST(Searcher, StatsCountExpansionsAndGenerations) {
  const GraphSpace g = diamond();
  const auto r = search::find_path(g, std::string("s"),
                                   SearchOptions{.strategy = Strategy::kBestFirst});
  // Expansions: s, a (f=1+5=6 ordering: s then a(g=1) then b(g=4) ... t).
  EXPECT_GE(r.stats.nodes_expanded, 2u);
  EXPECT_GE(r.stats.nodes_generated, 3u);
  EXPECT_GE(r.stats.max_open_size, 1u);
}

/// A rows x cols 4-neighbour grid with uneven edge weights, goal in the far
/// corner.  Large grids intern far more states than a fresh Searcher's slot
/// table holds, so the table grows in the middle of the search.
GraphSpace weighted_grid(int rows, int cols) {
  GraphSpace g;
  const auto name = [](int r, int c) {
    return std::to_string(r) + "," + std::to_string(c);
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      auto& out = g.edges[name(r, c)];
      const geom::Cost w = (r * 7 + c * 3) % 5 + 1;
      if (r + 1 < rows) out.push_back({name(r + 1, c), w});
      if (c + 1 < cols) out.push_back({name(r, c + 1), 6 - w});
      if (r > 0) out.push_back({name(r - 1, c), w + 1});
      if (c > 0) out.push_back({name(r, c - 1), 2});
    }
  }
  g.goal = name(rows - 1, cols - 1);
  return g;
}

void expect_same_result(const search::SearchResult<std::string>& got,
                        const search::SearchResult<std::string>& want,
                        const std::string& what) {
  EXPECT_EQ(got.found, want.found) << what;
  EXPECT_EQ(got.cost, want.cost) << what;
  EXPECT_EQ(got.path, want.path) << what;
  EXPECT_EQ(got.stats.nodes_expanded, want.stats.nodes_expanded) << what;
  EXPECT_EQ(got.stats.nodes_generated, want.stats.nodes_generated) << what;
  EXPECT_EQ(got.stats.nodes_reopened, want.stats.nodes_reopened) << what;
  EXPECT_EQ(got.stats.max_open_size, want.stats.max_open_size) << what;
  EXPECT_EQ(got.stats.aborted, want.stats.aborted) << what;
}

TEST(Searcher, ReusedSearcherCarriesNoStateBetweenRuns) {
  GraphSpace reopen;  // the inconsistent-heuristic case above
  reopen.edges["s"] = {{"a", 10}, {"b", 1}};
  reopen.edges["a"] = {{"t", 1}};
  reopen.edges["b"] = {{"a", 2}};
  reopen.goal = "t";
  reopen.h = {{"s", 0}, {"a", 0}, {"b", 9}, {"t", 0}};

  GraphSpace chain;
  for (int i = 0; i < 40; ++i) {
    chain.edges["c" + std::to_string(i)] = {{"c" + std::to_string(i + 1), 1}};
  }
  chain.goal = "c40";

  // Enough states to outgrow the initial slot table several times over.
  const int side = 3 * static_cast<int>(std::sqrt(
                           search::Searcher<GraphSpace>::kInitialSlots));
  const GraphSpace grid = weighted_grid(side, side);
  ASSERT_GT(grid.edges.size(),
            2 * search::Searcher<GraphSpace>::kInitialSlots);

  struct Case {
    std::string what;
    const GraphSpace* space;
    std::vector<std::string> starts;
    SearchOptions opts;
  };
  const GraphSpace dia = diamond();
  const std::vector<Case> cases = {
      {"diamond A*", &dia, {"s"}, {.strategy = Strategy::kAStar}},
      {"grid best-first", &grid, {"0,0"}, {.strategy = Strategy::kBestFirst}},
      {"grid aborted", &grid, {"0,0"},
       {.strategy = Strategy::kBestFirst, .max_expansions = 50}},
      {"chain depth-limited DFS", &chain, {"c0"},
       {.strategy = Strategy::kDepthFirst, .depth_limit = 10}},
      {"reopening A*", &reopen, {"s"}, {.strategy = Strategy::kAStar}},
      {"grid breadth-first", &grid, {"0,0"},
       {.strategy = Strategy::kBreadthFirst}},
      {"diamond exhaustive", &dia, {"s"}, {.strategy = Strategy::kExhaustive}},
      {"grid multi-source", &grid, {"5,9", "0,0", "12,3"},
       {.strategy = Strategy::kBestFirst}},
      {"chain DFS", &chain, {"c0"}, {.strategy = Strategy::kDepthFirst}},
      {"diamond greedy", &dia, {"s"}, {.strategy = Strategy::kGreedy}},
  };

  search::Searcher<GraphSpace> reused;
  // Forward and then backward, so every case runs both on tables left by a
  // small search and on tables left by a large or aborted one.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const Case& c = cases[round == 0 ? k : cases.size() - 1 - k];
      const auto got = reused.run(*c.space, c.starts, c.opts);
      const auto want =
          c.starts.size() == 1
              ? search::find_path(*c.space, c.starts.front(), c.opts)
              : search::Searcher<GraphSpace>{}.run(*c.space, c.starts, c.opts);
      expect_same_result(got, want, c.what);
    }
  }
}

TEST(SearchStats, Accumulate) {
  search::SearchStats a{10, 20, 1, 5, false};
  const search::SearchStats b{1, 2, 0, 9, true};
  a += b;
  EXPECT_EQ(a.nodes_expanded, 11u);
  EXPECT_EQ(a.nodes_generated, 22u);
  EXPECT_EQ(a.nodes_reopened, 1u);
  EXPECT_EQ(a.max_open_size, 9u);
  EXPECT_TRUE(a.aborted);
}

TEST(Strategy, Names) {
  EXPECT_EQ(to_string(Strategy::kAStar), "A*");
  EXPECT_EQ(to_string(Strategy::kDepthFirst), "depth-first");
  EXPECT_TRUE(admissible(Strategy::kAStar));
  EXPECT_TRUE(admissible(Strategy::kBestFirst));
  EXPECT_FALSE(admissible(Strategy::kGreedy));
  EXPECT_FALSE(admissible(Strategy::kDepthFirst));
}

}  // namespace
