// Unit tests for the generic state-space search engine: the paper's OPEN/
// CLOSED machinery, all five strategies, reopening with parent re-pointing,
// and multi-source seeding.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "reference_searcher.hpp"
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
  // (f(a)=10 ties f(b)=10; the tie goes to the larger g, so a expands
  // first, then t enters OPEN at f=11, then b expands at f=10 and reveals
  // the shortcut to a).
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

TEST(Searcher, IndexedHeapMatchesLazyHeapOnHandBuiltGraphs) {
  // The reopening case (inconsistent h), greedy misled by h, a goal reached
  // twice at falling g (its open entry is re-keyed), and a grid whose
  // uneven weights re-key many open nodes; most repeat a start.
  GraphSpace reopen;
  reopen.edges["s"] = {{"a", 10}, {"b", 1}};
  reopen.edges["a"] = {{"t", 1}};
  reopen.edges["b"] = {{"a", 2}};
  reopen.goal = "t";
  reopen.h = {{"s", 0}, {"a", 0}, {"b", 9}, {"t", 0}};
  GraphSpace misled = diamond();
  misled.h = {{"s", 2}, {"a", 1}, {"b", 100}, {"t", 0}};
  const GraphSpace dia = diamond();
  const GraphSpace grid = weighted_grid(12, 12);
  struct Case {
    std::string what;
    const GraphSpace* space;
    std::vector<std::string> starts;
  };
  const std::vector<Case> cases = {
      {"reopening", &reopen, {"s", "s"}},
      {"misled", &misled, {"s"}},
      {"diamond", &dia, {"s", "a", "s"}},
      {"grid", &grid, {"0,0", "5,9", "0,0"}},
  };
  search::Searcher<GraphSpace> indexed;
  test::ReferenceSearcher<GraphSpace, test::LargerGTie> lazy;
  test::ReferenceSearcher<GraphSpace, test::FifoTie> fifo;
  for (const Case& c : cases) {
    for (const Strategy s :
         {Strategy::kAStar, Strategy::kExhaustive, Strategy::kBestFirst,
          Strategy::kGreedy, Strategy::kBreadthFirst, Strategy::kDepthFirst}) {
      const SearchOptions opts{.strategy = s};
      const std::string what = c.what + " " + std::string(to_string(s));
      const auto got = indexed.run(*c.space, c.starts, opts);
      EXPECT_EQ(test::order_mismatch(got, lazy.run(*c.space, c.starts, opts)),
                "")
          << what;
      EXPECT_EQ(test::tie_rule_mismatch(
                    got, fifo.run(*c.space, c.starts, opts), s),
                "")
          << what;
    }
  }
}

/// GraphSpace plus a dominators hook: a0 dominates a1 (same single edge).
struct TwinSpace : GraphSpace {
  bool hook = true;

  [[nodiscard]] search::Dominators<std::string, 2> dominators(
      const State& s) const {
    search::Dominators<std::string, 2> out;
    if (hook && s == "a1") out.push_back("a0");
    return out;
  }
};

/// Greedy pops a0 (h = 0) before a1 (h = 1), whatever their g: S->a0 costs
/// \p to_a0, S->a1 costs 1, and both lead to T at cost 5, then T->G at 1.
TwinSpace twins(geom::Cost to_a0) {
  TwinSpace g;
  g.edges["S"] = {{"a0", to_a0}, {"a1", 1}};
  g.edges["a0"] = {{"T", 5}};
  g.edges["a1"] = {{"T", 5}};
  g.edges["T"] = {{"G", 1}};
  g.goal = "G";
  g.h = {{"S", 0}, {"a0", 0}, {"a1", 1}, {"T", 5}, {"G", 0}};
  return g;
}

TEST(Searcher, ClosedDominatorSkipsOnlyAtNoGreaterCost) {
  const SearchOptions greedy{.strategy = Strategy::kGreedy};
  // a0 closed at g = 1 = g(a1): a1's edge to T is covered; skipping it
  // saves one generated successor and nothing else.
  TwinSpace tied = twins(1);
  const auto skipped = search::find_path(tied, std::string("S"), greedy);
  tied.hook = false;
  const auto full = search::find_path(tied, std::string("S"), greedy);
  EXPECT_EQ(skipped.cost, 7);
  EXPECT_EQ(skipped.path, full.path);
  EXPECT_EQ(skipped.stats.nodes_expanded, full.stats.nodes_expanded);
  EXPECT_EQ(skipped.stats.nodes_generated + 1, full.stats.nodes_generated);
  // a0 closed at g = 2 > g(a1) = 1: a1 reaches T more cheaply, so it must
  // be expanded (T at 6, not 7).
  TwinSpace dearer = twins(2);
  const auto kept = search::find_path(dearer, std::string("S"), greedy);
  dearer.hook = false;
  const auto reference = search::find_path(dearer, std::string("S"), greedy);
  EXPECT_EQ(kept.cost, 7);
  EXPECT_EQ(kept.path, (std::vector<std::string>{"S", "a1", "T", "G"}));
  EXPECT_EQ(kept.stats.nodes_generated, reference.stats.nodes_generated);
}

/// A random digraph whose states come in triples (3k, 3k+1, 3k+2): each
/// later member's edges are a random subset of the previous member's, each
/// cost raised by a random non-negative amount, and the three share goal
/// status.  So 3k dominates 3k+1 and 3k+1 dominates 3k+2 in the sense of
/// search::HasDominators; the hook names only the immediate predecessor,
/// which makes 3k+2's skip rely on the rule composing.
struct TripleGraph {
  using State = int;

  std::vector<std::vector<Successor<int>>> adj;
  std::vector<geom::Cost> h;
  std::vector<char> goal;
  bool hook = true;

  void successors(const State& s, std::vector<Successor<State>>& out) const {
    out = adj[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] geom::Cost heuristic(const State& s) const {
    return h[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool is_goal(const State& s) const {
    return goal[static_cast<std::size_t>(s)] != 0;
  }
  [[nodiscard]] search::Dominators<int, 2> dominators(const State& s) const {
    search::Dominators<int, 2> out;
    if (hook && s % 3 != 0) out.push_back(s - 1);
    return out;
  }
};

TripleGraph triple_graph(std::uint64_t seed, int triples) {
  std::mt19937_64 rng(seed);
  const int n = 3 * triples;
  std::uniform_int_distribution<int> node(0, n - 1);
  std::uniform_int_distribution<geom::Cost> w(0, 9);
  TripleGraph g;
  g.adj.resize(static_cast<std::size_t>(n));
  g.goal.assign(static_cast<std::size_t>(n), 0);
  for (int k = 0; k < triples; ++k) {
    auto& head = g.adj[static_cast<std::size_t>(3 * k)];
    for (int e = 0, deg = 1 + static_cast<int>(rng() % 4); e < deg; ++e) {
      head.push_back({node(rng), w(rng)});
    }
    for (int m = 1; m < 3; ++m) {
      for (const auto& e : g.adj[static_cast<std::size_t>(3 * k + m - 1)]) {
        if (rng() % 3 == 0) continue;
        g.adj[static_cast<std::size_t>(3 * k + m)].push_back(
            {e.state, e.cost + (rng() % 2 == 0 ? 0 : w(rng))});
      }
    }
    if (rng() % 6 == 0) {
      for (int m = 0; m < 3; ++m) g.goal[static_cast<std::size_t>(3 * k + m)] = 1;
    }
  }
  // Admissible but inconsistent h (a random fraction of the true distance
  // to a goal), so the runs reopen closed nodes too.
  std::vector<std::vector<Successor<int>>> rev(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) {
    for (const auto& e : g.adj[static_cast<std::size_t>(u)]) {
      rev[static_cast<std::size_t>(e.state)].push_back({u, e.cost});
    }
  }
  std::vector<geom::Cost> dist(static_cast<std::size_t>(n), geom::kCostInf);
  using Entry = std::pair<geom::Cost, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  for (int u = 0; u < n; ++u) {
    if (g.goal[static_cast<std::size_t>(u)] != 0) {
      dist[static_cast<std::size_t>(u)] = 0;
      pq.push({0, u});
    }
  }
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& e : rev[static_cast<std::size_t>(u)]) {
      geom::Cost& du = dist[static_cast<std::size_t>(e.state)];
      if (d + e.cost < du) {
        du = d + e.cost;
        pq.push({du, e.state});
      }
    }
  }
  g.h.resize(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) {
    const geom::Cost d = dist[static_cast<std::size_t>(u)];
    g.h[static_cast<std::size_t>(u)] =
        d >= geom::kCostInf ? 0 : d * static_cast<geom::Cost>(rng() % 5) / 4;
  }
  return g;
}

TEST(Searcher, DominatorsHookChangesOnlyTheGeneratedCount) {
  std::size_t with_hook = 0, without_hook = 0;
  search::Searcher<TripleGraph> pruned, full;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    TripleGraph g = triple_graph(seed, 12 + static_cast<int>(seed % 20));
    const int n = static_cast<int>(g.adj.size());
    const std::vector<int> starts = {static_cast<int>(seed % n),
                                     static_cast<int>((seed * 7) % n)};
    for (const Strategy s :
         {Strategy::kAStar, Strategy::kExhaustive, Strategy::kBestFirst,
          Strategy::kGreedy, Strategy::kBreadthFirst, Strategy::kDepthFirst}) {
      SearchOptions opts;
      opts.strategy = s;
      if (s == Strategy::kDepthFirst) opts.depth_limit = 1 + seed % 6;
      if (seed % 5 == 0) opts.max_expansions = 1 + seed % 17;
      g.hook = true;
      const auto got = pruned.run(g, starts, opts);
      g.hook = false;
      const auto want = full.run(g, starts, opts);
      const std::string what = "seed " + std::to_string(seed) + " " +
                               std::string(search::to_string(s));
      EXPECT_EQ(got.found, want.found) << what;
      EXPECT_EQ(got.cost, want.cost) << what;
      EXPECT_EQ(got.path, want.path) << what;
      EXPECT_EQ(got.stats.nodes_expanded, want.stats.nodes_expanded) << what;
      EXPECT_EQ(got.stats.nodes_reopened, want.stats.nodes_reopened) << what;
      EXPECT_EQ(got.stats.max_open_size, want.stats.max_open_size) << what;
      EXPECT_EQ(got.stats.aborted, want.stats.aborted) << what;
      EXPECT_LE(got.stats.nodes_generated, want.stats.nodes_generated) << what;
      if (s == Strategy::kBreadthFirst || s == Strategy::kDepthFirst) {
        // Blind strategies ignore the hook.
        EXPECT_EQ(got.stats.nodes_generated, want.stats.nodes_generated)
            << what;
      }
      with_hook += got.stats.nodes_generated;
      without_hook += want.stats.nodes_generated;
    }
  }
  EXPECT_LT(with_hook, without_hook);  // the hook is not vacuous
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
