#include "core/gridless_router.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gcr::route {

using geom::Axis;
using geom::Coord;
using geom::Dir;
using geom::Point;

GridlessSpace::GridlessSpace(const spatial::ObstacleIndex& obstacles,
                             const spatial::EscapeLineSet& lines,
                             std::vector<Point> goals, const CostModel* cost,
                             SuccessorMode mode)
    : obstacles_(obstacles),
      lines_(lines),
      goals_(std::move(goals)),
      cost_(cost),
      mode_(mode) {
  std::sort(goals_.begin(), goals_.end());
  goals_.erase(std::unique(goals_.begin(), goals_.end()), goals_.end());
}

void GridlessSpace::successors(const State& s,
                               std::vector<search::Successor<State>>& out) const {
  for (const Dir d : geom::kAllDirs) {
    // A probe never immediately reverses: any point it would revisit was
    // already generated by the incoming probe, and a U-turn is never on a
    // minimal path with non-negative costs.
    if (s.in_dir != kNoDir && d == opposite(static_cast<Dir>(s.in_dir))) {
      continue;
    }
    const Axis ax = axis_of(d);
    const Coord origin = s.p.along(ax);
    const spatial::RayHit hit = obstacles_.trace(s.p, d);
    if (hit.stop == origin) continue;  // hugging a wall: zero extent

    // Candidate landing coordinates along the ray, ascending and distinct
    // (the emission order the heap's FIFO tie-break depends on): escape-line
    // crossings, goal-aligned projections, and the stop itself.  Crossings
    // arrive in travel order, so a westward or southward probe reverses
    // them; the rest are inserted in place.
    cands_.clear();
    if (mode_ == SuccessorMode::kFull) {
      lines_.crossings(s.p, d, hit.stop, cands_);
      if (sign_of(d) < 0) std::reverse(cands_.begin(), cands_.end());
    }
    const auto insert_sorted = [this](Coord c) {
      const auto at = std::lower_bound(cands_.begin(), cands_.end(), c);
      if (at == cands_.end() || *at != c) cands_.insert(at, c);
    };
    const Coord lo = std::min(origin, hit.stop);
    const Coord hi = std::max(origin, hit.stop);
    for (const Point& g : goals_) {
      const Coord proj = g.along(ax);
      if (proj != origin && proj >= lo && proj <= hi) insert_sorted(proj);
    }
    insert_sorted(hit.stop);

    for (const Coord c : cands_) {
      Point q = s.p;
      q.along(ax) = c;
      geom::Cost edge = geom::coord_abs_diff(c, origin) * kCostScale;
      if (cost_ != nullptr) {
        edge += cost_->penalty(EdgeContext{obstacles_, s, d, q});
      }
      out.push_back({State{q, static_cast<std::uint8_t>(d)}, edge});
    }
  }
}

geom::Cost GridlessSpace::heuristic(const State& s) const {
  geom::Cost best = geom::kCostInf;
  for (const Point& g : goals_) {
    const geom::Cost d = manhattan(s.p, g);
    if (d < best) best = d;
  }
  return best == geom::kCostInf ? best : best * kCostScale;
}

std::vector<Point> compress_path(const std::vector<RouteState>& states) {
  std::vector<Point> pts;
  pts.reserve(states.size());
  for (const RouteState& s : states) {
    // Drop consecutive duplicates (multi-source seeds may coincide).
    if (!pts.empty() && pts.back() == s.p) continue;
    pts.push_back(s.p);
  }
  // Merge colinear runs into single bend-to-bend segments.
  std::vector<Point> out;
  for (const Point& p : pts) {
    while (out.size() >= 2) {
      const Point& a = out[out.size() - 2];
      const Point& b = out.back();
      const bool colinear = (a.x == b.x && b.x == p.x) ||
                            (a.y == b.y && b.y == p.y);
      if (!colinear) break;
      out.pop_back();
    }
    out.push_back(p);
  }
  return out;
}

geom::Cost polyline_length(const std::vector<Point>& pts) {
  geom::Cost len = 0;
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    len += manhattan(pts[i], pts[i + 1]);
  }
  return len;
}

namespace {

Route run_search(const GridlessSpace& space, const std::vector<Point>& sources,
                 const RouteOptions& opts) {
  Route out;
  std::vector<RouteState> starts;
  starts.reserve(sources.size());
  for (const Point& p : sources) starts.push_back(RouteState{p, kNoDir});

  // One warm searcher per thread: its tables outlive the search, so
  // steady-state searches allocate nothing, and daemon workers and batch
  // threads never share one (a Searcher runs one search at a time).
  thread_local search::Searcher<GridlessSpace> searcher;
  search::SearchOptions sopts;
  sopts.strategy = opts.strategy;
  sopts.max_expansions = opts.max_expansions;
  sopts.depth_limit = opts.depth_limit;
  const auto result = searcher.run(space, starts, sopts);

  out.found = result.found;
  out.stats = result.stats;
  if (result.found) {
    out.cost = result.cost;
    out.points = compress_path(result.path);
    out.length = polyline_length(out.points);
  }
  return out;
}

}  // namespace

Route GridlessRouter::route(const Point& from, const Point& to,
                            const RouteOptions& opts) const {
  return route_set({from}, {to}, opts);
}

Route GridlessRouter::route_set(const std::vector<Point>& sources,
                                const std::vector<Point>& targets,
                                const RouteOptions& opts) const {
  Route out;
  if (sources.empty() || targets.empty()) return out;
  for (const Point& p : sources) {
    assert(obstacles_.routable(p) && "source must be routable");
    (void)p;
  }
  const GridlessSpace space(obstacles_, lines_, targets, cost_,
                            opts.successors);
  return run_search(space, sources, opts);
}

}  // namespace gcr::route
