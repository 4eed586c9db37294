#include "grid/lee_moore.hpp"

#include <utility>
#include <vector>

namespace gcr::grid {

using geom::Point;

GridRoute LeeMooreRouter::route(const Point& from, const Point& to,
                                search::Strategy strategy) const {
  return route_set({from}, {to}, strategy);
}

GridRoute LeeMooreRouter::route_set(const std::vector<Point>& sources,
                                    const std::vector<Point>& targets,
                                    search::Strategy strategy) const {
  GridRoute out;
  std::vector<GridPoint> starts;
  for (const Point& p : sources) {
    if (const auto g = graph_.snap(p)) starts.push_back(*g);
  }
  std::vector<GridPoint> goals;
  for (const Point& p : targets) {
    if (const auto g = graph_.snap(p)) goals.push_back(*g);
  }
  if (starts.empty() || goals.empty()) return out;

  const GridRouteSpace space(graph_, std::move(goals));
  search::Searcher<GridRouteSpace> searcher;
  search::SearchOptions opts;
  opts.strategy = strategy;
  const auto result = searcher.run(space, starts, opts);

  out.found = result.found;
  out.stats = result.stats;
  if (result.found) {
    out.length = result.cost;
    out.points.reserve(result.path.size());
    for (const GridPoint& g : result.path) out.points.push_back(graph_.to_dbu(g));
  }
  return out;
}

}  // namespace gcr::grid
