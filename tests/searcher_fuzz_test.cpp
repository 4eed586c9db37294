// Randomized cross-validation of the generic search engine against a
// textbook reference Dijkstra on random weighted digraphs, consistency
// properties between strategies, and the indexed OPEN heap against the
// lazy-deletion heap it replaced (tests/reference_searcher.hpp).

#include <gtest/gtest.h>

#include <queue>
#include <random>
#include <vector>

#include "fuzz_env.hpp"
#include "reference_searcher.hpp"
#include "search/searcher.hpp"

namespace {

using namespace gcr;
using search::SearchOptions;
using search::Strategy;
using search::Successor;

/// Random digraph space over integer states 0..n-1.
struct RandomGraph {
  using State = int;

  std::vector<std::vector<Successor<int>>> adj;
  std::vector<geom::Cost> h;  // admissible heuristic (computed from dists)
  int goal = 0;

  void successors(const State& s, std::vector<Successor<State>>& out) const {
    out = adj[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] geom::Cost heuristic(const State& s) const {
    return h.empty() ? 0 : h[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] bool is_goal(const State& s) const { return s == goal; }
};

/// Reference: plain Dijkstra from `start`, distance to every node.
std::vector<geom::Cost> dijkstra_reference(const RandomGraph& g, int start) {
  std::vector<geom::Cost> dist(g.adj.size(), geom::kCostInf);
  using Entry = std::pair<geom::Cost, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[static_cast<std::size_t>(start)] = 0;
  pq.push({0, start});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& e : g.adj[static_cast<std::size_t>(u)]) {
      if (d + e.cost < dist[static_cast<std::size_t>(e.state)]) {
        dist[static_cast<std::size_t>(e.state)] = d + e.cost;
        pq.push({d + e.cost, e.state});
      }
    }
  }
  return dist;
}

RandomGraph make_graph(std::uint64_t seed, int n, int out_degree,
                       geom::Cost max_w) {
  RandomGraph g;
  g.adj.resize(static_cast<std::size_t>(n));
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> node(0, n - 1);
  std::uniform_int_distribution<geom::Cost> w(0, max_w);
  for (int u = 0; u < n; ++u) {
    for (int k = 0; k < out_degree; ++k) {
      g.adj[static_cast<std::size_t>(u)].push_back({node(rng), w(rng)});
    }
  }
  g.goal = node(rng);
  return g;
}

/// Exact distance from every node to \p g's goal.
std::vector<geom::Cost> distance_to_goal(const RandomGraph& g) {
  RandomGraph rev = g;
  for (auto& v : rev.adj) v.clear();
  for (std::size_t u = 0; u < g.adj.size(); ++u) {
    for (const auto& e : g.adj[u]) {
      rev.adj[static_cast<std::size_t>(e.state)].push_back(
          {static_cast<int>(u), e.cost});
    }
  }
  return dijkstra_reference(rev, g.goal);
}

class SearcherFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SearcherFuzz, BestFirstMatchesReferenceDijkstra) {
  RandomGraph g = make_graph(GetParam(), 60, 3, 9);
  const auto dist = dijkstra_reference(g, 0);
  const auto r = search::find_path(
      g, 0, SearchOptions{.strategy = Strategy::kBestFirst});
  const geom::Cost expected = dist[static_cast<std::size_t>(g.goal)];
  if (expected >= geom::kCostInf) {
    EXPECT_FALSE(r.found);
  } else {
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.cost, expected) << "seed " << GetParam();
  }
}

TEST_P(SearcherFuzz, AStarWithAdmissibleHMatchesDijkstra) {
  RandomGraph g = make_graph(GetParam() + 1000, 60, 3, 9);
  // Admissible h: exact distance-to-goal on the reversed graph, scaled down.
  const auto to_goal = distance_to_goal(g);
  g.h.resize(60);
  for (int u = 0; u < 60; ++u) {
    const geom::Cost d = to_goal[static_cast<std::size_t>(u)];
    g.h[static_cast<std::size_t>(u)] = d >= geom::kCostInf ? 0 : d / 2;
  }
  const auto dist = dijkstra_reference(g, 0);
  const auto r =
      search::find_path(g, 0, SearchOptions{.strategy = Strategy::kAStar});
  const geom::Cost expected = dist[static_cast<std::size_t>(g.goal)];
  if (expected >= geom::kCostInf) {
    EXPECT_FALSE(r.found);
  } else {
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.cost, expected) << "seed " << GetParam();
  }
}

TEST_P(SearcherFuzz, ExhaustiveMatchesBestFirst) {
  RandomGraph g = make_graph(GetParam() + 2000, 40, 2, 9);
  const auto a = search::find_path(
      g, 0, SearchOptions{.strategy = Strategy::kBestFirst});
  const auto b = search::find_path(
      g, 0, SearchOptions{.strategy = Strategy::kExhaustive});
  EXPECT_EQ(a.found, b.found);
  if (a.found) {
    EXPECT_EQ(a.cost, b.cost);
  }
}

TEST_P(SearcherFuzz, PathCostsAreSelfConsistent) {
  RandomGraph g = make_graph(GetParam() + 3000, 50, 3, 9);
  for (const Strategy s :
       {Strategy::kBestFirst, Strategy::kAStar, Strategy::kBreadthFirst,
        Strategy::kDepthFirst}) {
    SearchOptions opts;
    opts.strategy = s;
    opts.max_expansions = 100000;
    const auto r = search::find_path(g, 0, opts);
    if (!r.found) continue;
    // Recompute the path cost edge by edge; it must equal the reported cost.
    geom::Cost total = 0;
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      geom::Cost best_edge = geom::kCostInf;
      for (const auto& e : g.adj[static_cast<std::size_t>(r.path[i])]) {
        if (e.state == r.path[i + 1]) best_edge = std::min(best_edge, e.cost);
      }
      ASSERT_LT(best_edge, geom::kCostInf) << "path uses a non-edge";
      total += best_edge;
    }
    // Blind strategies may report a cost using a specific (possibly more
    // expensive) parallel edge; the recomputed minimum is a lower bound.
    EXPECT_LE(total, r.cost) << to_string(s);
  }
}

TEST_P(SearcherFuzz, IndexedHeapMatchesLazyHeap) {
  // Zero-cost edges and small weights make ties at equal f common; the
  // inconsistent heuristics make closed nodes reopen and open ones re-key.
  constexpr Strategy kAll[] = {
      Strategy::kAStar,  Strategy::kExhaustive,   Strategy::kBestFirst,
      Strategy::kGreedy, Strategy::kBreadthFirst, Strategy::kDepthFirst};
  std::mt19937_64 rng(GetParam() * 6364136223846793005ULL + 17);
  search::Searcher<RandomGraph> indexed;
  test::ReferenceSearcher<RandomGraph, test::LargerGTie> lazy;
  test::ReferenceSearcher<RandomGraph, test::FifoTie> fifo;
  std::size_t reopened = 0;
  for (int round = 0, rounds = test::fuzz_iters(60); round < rounds; ++round) {
    const int n = 20 + static_cast<int>(rng() % 60);
    RandomGraph g = make_graph(rng(), n, 1 + static_cast<int>(rng() % 4),
                               static_cast<geom::Cost>(rng() % 10));
    const auto to_goal = distance_to_goal(g);
    // h: none, admissible but inconsistent (a random fraction of the true
    // distance), or, for greedy only, arbitrary.
    const Strategy strategy = kAll[rng() % std::size(kAll)];
    const bool greedy = strategy == Strategy::kGreedy;
    const int h_kind = static_cast<int>(rng() % (greedy ? 3 : 2));
    if (h_kind > 0) {
      g.h.resize(static_cast<std::size_t>(n));
      for (std::size_t u = 0; u < g.h.size(); ++u) {
        const geom::Cost d = to_goal[u] >= geom::kCostInf ? 0 : to_goal[u];
        g.h[u] = h_kind == 1 ? d * static_cast<geom::Cost>(rng() % 5) / 4
                             : static_cast<geom::Cost>(rng() % 40);
      }
    }
    std::vector<int> starts;  // duplicates allowed
    for (std::size_t i = 0, k = 1 + rng() % 3; i < k; ++i) {
      starts.push_back(static_cast<int>(rng() % static_cast<unsigned>(n)));
    }
    SearchOptions opts;
    opts.strategy = strategy;
    if (rng() % 5 == 0) opts.max_expansions = 1 + rng() % 30;
    if (strategy == Strategy::kDepthFirst) opts.depth_limit = rng() % 8;
    const std::string what = "seed " + std::to_string(GetParam()) +
                             " round " + std::to_string(round) + " " +
                             std::string(search::to_string(strategy)) +
                             " h kind " + std::to_string(h_kind);
    const auto got = indexed.run(g, starts, opts);
    ASSERT_EQ(test::order_mismatch(got, lazy.run(g, starts, opts)), "")
        << what;
    ASSERT_EQ(test::tie_rule_mismatch(got, fifo.run(g, starts, opts),
                                      strategy),
              "")
        << what;
    reopened += got.stats.nodes_reopened;
  }
  EXPECT_GT(reopened, 0u);  // the reopening path was exercised
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SearcherFuzz,
    ::testing::ValuesIn(gcr::test::fuzz_seeds(7, 7, 8)));

}  // namespace
