#include "core/steiner.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace gcr::route {

using geom::Axis;
using geom::Coord;
using geom::Point;
using geom::Segment;

std::vector<std::vector<Point>> net_terminal_pins(const layout::Layout& lay,
                                                  const layout::Net& net) {
  std::vector<std::vector<Point>> out;
  out.reserve(net.terminals().size());
  for (const layout::TerminalRef& ref : net.terminals()) {
    const layout::Terminal& t = lay.terminal(ref);
    std::vector<Point> pins;
    pins.reserve(t.pins.size());
    for (const layout::Pin& p : t.pins) pins.push_back(p.pos);
    out.push_back(std::move(pins));
  }
  return out;
}

std::optional<geom::Rect> terminal_bbox(const layout::Layout& lay,
                                        const layout::Net& net) {
  std::optional<geom::Rect> bbox;
  for (const layout::TerminalRef& ref : net.terminals()) {
    for (const layout::Pin& p : lay.terminal(ref).pins) {
      bbox = bbox ? bbox->hull(p.pos) : geom::Rect{p.pos, p.pos};
    }
  }
  return bbox;
}

void SteinerNetRouter::connection_points(
    ConnectScratch& scratch, const std::vector<Point>& connected_pins,
    const std::vector<Segment>& tree, bool segments_allowed) const {
  // Gather candidates (duplicates and all) into the reused vector, then
  // sort + unique.  The result must be sorted for deterministic seeding
  // anyway, so deduplicating through a hash set was pure overhead — and
  // the per-step set/vector churn showed up in every multi-terminal net.
  std::vector<Point>& src = scratch.sources;
  src.clear();  // keeps capacity across tree-growth steps
  src.insert(src.end(), connected_pins.begin(), connected_pins.end());
  if (segments_allowed) {
    for (const Segment& s : tree) {
      src.push_back(s.a);
      src.push_back(s.b);
      if (s.degenerate()) continue;
      // Escape-line crossings along the segment: the departure points the
      // line search could use anyway, realized as explicit sources.
      const Axis ax = s.axis();
      scratch.crossings.clear();
      lines_.crossings_in(ax, s.a.along(geom::other(ax)),
                          std::min(s.a.along(ax), s.b.along(ax)),
                          std::max(s.a.along(ax), s.b.along(ax)),
                          scratch.crossings);
      for (const Coord c : scratch.crossings) {
        Point q = s.a;
        q.along(ax) = c;
        src.push_back(q);
      }
      // Perpendicular projections of the remaining goals: the closest legal
      // departure toward each target pin.
      for (const Point& g : scratch.goals) src.push_back(s.closest_point(g));
    }
  }
  std::sort(src.begin(), src.end());  // deterministic seeding order
  src.erase(std::unique(src.begin(), src.end()), src.end());
}

NetRoute SteinerNetRouter::route_terminals(
    const std::vector<std::vector<Point>>& terminals,
    const SteinerOptions& opts) const {
  NetRoute out;
  if (terminals.empty()) return out;
  for (const auto& pins : terminals) {
    if (pins.empty()) return out;  // a pinless terminal is unroutable
    for (const Point& p : pins) {
      // A pin inside an obstacle (in sequential routing, swallowed by an
      // earlier net's wire halo) can be neither a source nor a goal.
      if (!router_.obstacles().routable(p)) return out;
    }
  }

  // Seed the tree with the first terminal's pins (all of them: a multi-pin
  // terminal is internally connected by its cell).
  thread_local ConnectScratch scratch;
  std::vector<Point>& connected_pins = scratch.connected_pins;
  connected_pins.assign(terminals[0].begin(), terminals[0].end());
  std::vector<char>& joined = scratch.joined;
  joined.assign(terminals.size(), 0);
  joined[0] = 1;
  std::vector<Segment>& tree = scratch.tree;
  tree.clear();
  std::size_t remaining = terminals.size() - 1;

  out.ok = true;
  out.connections.reserve(remaining);
  while (remaining > 0) {
    scratch.goals.clear();
    for (std::size_t t = 0; t < terminals.size(); ++t) {
      if (joined[t]) continue;
      scratch.goals.insert(scratch.goals.end(), terminals[t].begin(),
                           terminals[t].end());
    }
    connection_points(scratch, connected_pins, tree, opts.connect_to_segments);

    Route conn = router_.route_set(scratch.sources, scratch.goals, opts.route);
    out.stats += conn.stats;
    if (!conn.found) {
      out.ok = false;
      break;
    }

    // Which terminal did we hit?  The path ends on one of its pins.
    const Point hit = conn.points.back();
    std::size_t hit_term = terminals.size();
    for (std::size_t t = 0; t < terminals.size() && hit_term == terminals.size();
         ++t) {
      if (joined[t]) continue;
      if (std::find(terminals[t].begin(), terminals[t].end(), hit) !=
          terminals[t].end()) {
        hit_term = t;
      }
    }
    assert(hit_term < terminals.size() && "goal must belong to some terminal");

    for (std::size_t i = 0; i + 1 < conn.points.size(); ++i) {
      tree.emplace_back(conn.points[i], conn.points[i + 1]);
    }
    out.wirelength += conn.length;
    joined[hit_term] = 1;
    --remaining;
    // "all the pins which are associated with the newly connected terminal
    // are brought into the connected set."
    connected_pins.insert(connected_pins.end(), terminals[hit_term].begin(),
                          terminals[hit_term].end());
    out.connections.push_back(std::move(conn));
  }
  out.segments.assign(tree.begin(), tree.end());
  return out;
}

NetRoute SteinerNetRouter::route_net(const layout::Layout& lay,
                                     const layout::Net& net,
                                     const SteinerOptions& opts) const {
  // The pin lists live per thread and keep their capacity, so a warm
  // thread resolves a net's pins without allocating.
  thread_local std::vector<std::vector<Point>> terminals;
  terminals.resize(net.terminals().size());
  for (std::size_t t = 0; t < terminals.size(); ++t) {
    terminals[t].clear();
    for (const layout::Pin& p : lay.terminal(net.terminals()[t]).pins) {
      terminals[t].push_back(p.pos);
    }
  }
  return route_terminals(terminals, opts);
}

}  // namespace gcr::route
