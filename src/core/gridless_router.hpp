#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cost_model.hpp"
#include "core/route_types.hpp"
#include "search/searcher.hpp"
#include "search/strategy.hpp"
#include "spatial/escape_lines.hpp"
#include "spatial/obstacle_index.hpp"

/// \file gridless_router.hpp
/// The paper's global router: a gridless line search driven by the generic
/// A* engine.
///
/// Successor generation implements the paper's two rules — a probe
/// "(1) extends any path as far toward the goal as is feasible in x and y and
/// (2) hugs cells (obstacles) as they are encountered" — by ray tracing:
/// a ray is cast from the current point, stopped at the first cell interior
/// (or the routing boundary), and successors are emitted at
///   * every crossing with an escape line (the maximal extensions of cell
///     edges, where hugging turns happen),
///   * the goal-aligned projection (extend toward the goal), and
///   * the hug point on the blocking boundary itself.
/// A start casts a ray in each of the four directions.  A state reached by a
/// probe casts only the two rays perpendicular to the one it arrived on: the
/// reverse ray revisits what the incoming probe generated, and the straight
/// ray is a suffix of the incoming one, whose probe already emitted every
/// landing point on it at no greater cost (the contract on CostModel).
/// Because a shortest rectilinear path among disjoint rectangles always
/// exists whose bends lie on these lines, A* with the Manhattan heuristic is
/// admissible: it returns a *minimal* route, while typically expanding
/// orders of magnitude fewer nodes than the Lee–Moore grid (paper Figure 1).
///
/// The rays along one axis from a point end where the point's *free run*
/// does: the maximal segment [W, E] of its track (the horizontal or
/// vertical line through it) that no obstacle interior cuts.  Every
/// routable point q of the track with W <= q <= E has the same two stops,
/// because a blocker whose near edge lay in [W, E) would put the origin or
/// q inside that obstacle's interior; and the probe from q crosses the
/// run's escape lines beyond q.  So each search probes a run once: a
/// per-thread memo maps a track to the runs recorded on it, each with its
/// ascending crossings in one flat arena, and a ray from a point inside a
/// recorded run is two binary searches into those crossings.  Only a miss
/// pays for two traces and a crossings scan.  Lines and obstacles do not
/// change while a space is in use, and the memo belongs to one space at a
/// time (an id drawn at construction), so no space reads runs recorded for
/// another.  States must lie inside the routing boundary (a Debug assert
/// checks): a ray from outside it clamps to its origin, so its "run" would
/// not be one.
///
/// The space also names each probed state's dominators for the searcher
/// (search::HasDominators): at the same point, the twin that arrived from
/// the opposite side casts the same two rays, and a start casts all four, so
/// once either is expanded at no greater cost the state's own rays are
/// skipped.  Both rules are exact — routes and every search counter but
/// `nodes_generated` are those of probing all three forward directions.

namespace gcr::route {

/// Successor-generation policy — the ablation knob for the paper's rule.
enum class SuccessorMode : std::uint8_t {
  /// The paper's rule: successors at every escape-line crossing, the hug
  /// point, and the goal projection.  Complete and admissible.
  kFull,
  /// Ablation: hug point and goal projection only (no escape-line
  /// crossings).  Probes can still round obstacles they run into, but turns
  /// "remembered" from obstacles a probe merely passes are lost — routes
  /// degrade to suboptimal or unreachable, quantifying what the crossing
  /// set buys.
  kSparse,
};

/// Search-space adapter over the routing plane.  States are (point, incoming
/// direction) pairs; goals are an explicit set of points (a pin, or every
/// pin of every yet-unconnected terminal during Steiner construction), kept
/// sorted and deduplicated.  The obstacles and lines must not change while
/// the space is in use: the run memo keeps what it probed for as long as
/// the space is the last one this thread searched.
class GridlessSpace {
 public:
  using State = RouteState;

  GridlessSpace(const spatial::ObstacleIndex& obstacles,
                const spatial::EscapeLineSet& lines,
                std::vector<geom::Point> goals,
                const CostModel* cost = nullptr,
                SuccessorMode mode = SuccessorMode::kFull);

  void successors(const State& s,
                  std::vector<search::Successor<State>>& out) const;

  /// The states whose expansion covers that of \p s (search::HasDominators):
  /// the opposite-direction twin and the start at the same point.  None for
  /// a start.
  [[nodiscard]] search::Dominators<State, 2> dominators(const State& s) const;

  /// Scaled Manhattan distance to the nearest goal — the paper's h-hat.
  [[nodiscard]] geom::Cost heuristic(const State& s) const;

  [[nodiscard]] bool is_goal(const State& s) const {
    return std::binary_search(goals_.begin(), goals_.end(), s.p);
  }

 private:
  const spatial::ObstacleIndex& obstacles_;
  const spatial::EscapeLineSet& lines_;
  std::vector<geom::Point> goals_;
  const CostModel* cost_;  // nullable: pure wirelength
  SuccessorMode mode_;
  std::uint64_t id_;  // owns the thread's run memo while this space probes
};

/// Options for a single connection search.
struct RouteOptions {
  search::Strategy strategy = search::Strategy::kAStar;
  /// Abort threshold (0 = unlimited); blind strategies need one on large
  /// layouts.
  std::size_t max_expansions = 0;
  /// Depth limit for depth-first probing.
  std::size_t depth_limit = 0;
  /// Successor-generation policy (ablation knob; keep kFull for optimality).
  SuccessorMode successors = SuccessorMode::kFull;
};

/// Point-to-point / set-to-set gridless router.
class GridlessRouter {
 public:
  /// \p cost may be nullptr for pure-wirelength routing.  All referenced
  /// objects must outlive the router.
  GridlessRouter(const spatial::ObstacleIndex& obstacles,
                 const spatial::EscapeLineSet& lines,
                 const CostModel* cost = nullptr)
      : obstacles_(obstacles), lines_(lines), cost_(cost) {}

  /// Routes a two-point connection.  Both endpoints must be routable.
  [[nodiscard]] Route route(const geom::Point& from, const geom::Point& to,
                            const RouteOptions& opts = {}) const;

  /// Multi-source, multi-target: the Steiner tree extension step.  The search
  /// starts simultaneously from every source (the connected set) and stops at
  /// the first goal reached with minimal cost.  A connection whose goals all
  /// lie outside every source's free-space component fails without a search
  /// (`stats.proved_unreachable` = 1, nothing expanded): every probe stays
  /// in the free space, so the search could not have found a path.
  [[nodiscard]] Route route_set(const std::vector<geom::Point>& sources,
                                const std::vector<geom::Point>& targets,
                                const RouteOptions& opts = {}) const;

  [[nodiscard]] const spatial::ObstacleIndex& obstacles() const noexcept {
    return obstacles_;
  }
  [[nodiscard]] const spatial::EscapeLineSet& lines() const noexcept {
    return lines_;
  }

 private:
  const spatial::ObstacleIndex& obstacles_;
  const spatial::EscapeLineSet& lines_;
  const CostModel* cost_;
};

/// Compresses a state path into a bend polyline and computes its DBU length.
[[nodiscard]] std::vector<geom::Point> compress_path(
    const std::vector<RouteState>& states);

/// Total rectilinear length of a polyline.
[[nodiscard]] geom::Cost polyline_length(const std::vector<geom::Point>& pts);

}  // namespace gcr::route
