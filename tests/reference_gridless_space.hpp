#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/gridless_router.hpp"
#include "core/route_types.hpp"
#include "crossings.hpp"
#include "search/searcher.hpp"
#include "spatial/escape_lines.hpp"
#include "spatial/obstacle_index.hpp"

/// \file reference_gridless_space.hpp
/// The unpruned gridless successor rule, kept verbatim as the
/// differential-testing reference: every state probes all three forward
/// directions (straight on included), and the space names no dominators,
/// so the searcher expands every popped state in full.  Every ray is traced
/// and its crossings filtered from the line records (tests/crossings.hpp):
/// no run memo, no lookup tables.
/// `route::GridlessSpace` prunes the straight re-probe and lets the
/// searcher skip states a closed twin or start covers; both prunings are
/// exact, so a search over it must reproduce a search over this space
/// state for state — same path, cost, expansions, reopenings and OPEN
/// high-water mark — while generating no more successors.  Any change to
/// what a probe emits or what it costs must land here AND in the router,
/// or the differential suite will fail — that is the point.

namespace gcr::test {

class ReferenceGridlessSpace {
 public:
  using State = route::RouteState;

  ReferenceGridlessSpace(const spatial::ObstacleIndex& obstacles,
                         const spatial::EscapeLineSet& lines,
                         std::vector<geom::Point> goals,
                         const route::CostModel* cost = nullptr,
                         route::SuccessorMode mode =
                             route::SuccessorMode::kFull)
      : obstacles_(obstacles),
        lines_(lines),
        goals_(std::move(goals)),
        cost_(cost),
        mode_(mode) {
    std::sort(goals_.begin(), goals_.end());
    goals_.erase(std::unique(goals_.begin(), goals_.end()), goals_.end());
  }

  void successors(const State& s,
                  std::vector<search::Successor<State>>& out) const {
    using geom::Axis;
    using geom::Coord;
    using geom::Dir;
    using geom::Point;
    for (const Dir d : geom::kAllDirs) {
      // A probe never immediately reverses: any point it would revisit was
      // already generated by the incoming probe, and a U-turn is never on a
      // minimal path with non-negative costs.
      if (s.in_dir != route::kNoDir &&
          d == opposite(static_cast<Dir>(s.in_dir))) {
        continue;
      }
      const Axis ax = axis_of(d);
      const Coord origin = s.p.along(ax);
      const spatial::RayHit hit = obstacles_.trace(s.p, d);
      if (hit.stop == origin) continue;  // hugging a wall: zero extent

      // Candidate landing coordinates along the ray, ascending and distinct
      // (the emission order, which the heap's push-order tie-break among
      // equal f and g depends on): escape-line crossings, goal-aligned
      // projections, and the stop itself.  Crossings arrive in travel
      // order, so a westward or southward probe reverses them; the rest are
      // inserted in place.
      cands_.clear();
      if (mode_ == route::SuccessorMode::kFull) {
        cands_ = crossings(lines_, s.p, d, hit.stop);
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
        geom::Cost edge = geom::coord_abs_diff(c, origin) * route::kCostScale;
        if (cost_ != nullptr) {
          edge += cost_->penalty(route::EdgeContext{obstacles_, s, d, q});
        }
        out.push_back({State{q, static_cast<std::uint8_t>(d)}, edge});
      }
    }
  }

  [[nodiscard]] geom::Cost heuristic(const State& s) const {
    geom::Cost best = geom::kCostInf;
    for (const geom::Point& g : goals_) {
      const geom::Cost d = manhattan(s.p, g);
      if (d < best) best = d;
    }
    return best == geom::kCostInf ? best : best * route::kCostScale;
  }

  [[nodiscard]] bool is_goal(const State& s) const {
    return std::binary_search(goals_.begin(), goals_.end(), s.p);
  }

 private:
  const spatial::ObstacleIndex& obstacles_;
  const spatial::EscapeLineSet& lines_;
  std::vector<geom::Point> goals_;
  const route::CostModel* cost_;
  route::SuccessorMode mode_;
  mutable std::vector<geom::Coord> cands_;
};

}  // namespace gcr::test
