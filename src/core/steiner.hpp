#pragma once

#include <optional>
#include <vector>

#include "core/gridless_router.hpp"
#include "core/route_types.hpp"
#include "layout/layout.hpp"

/// \file steiner.hpp
/// Multi-terminal net construction.
///
/// "Multi-terminal nets are accommodated by approximating a Steiner tree
/// with an adaptation of Dijkstra's minimum spanning tree algorithm.  The
/// modification of the spanning tree algorithm considers all line segments
/// in the spanning tree being built as potential connection points."
///
/// The builder grows a tree Prim-style: at each step a multi-source
/// multi-target A* runs from the *connected set* — every pin already in the
/// tree plus every point of every tree segment — to the pins of all
/// yet-unconnected terminals, and the cheapest connection joins the tree.
/// "Multi-pin terminals are handled by logically grouping all pins which
/// belong to a terminal": when a terminal connects, all of its pins enter
/// the connected set.

namespace gcr::route {

struct SteinerOptions {
  RouteOptions route;
  /// The paper's modification: tree segments are legal connection points.
  /// false = classic spanning tree over pins only (the ablation baseline).
  bool connect_to_segments = true;
};

class SteinerNetRouter {
 public:
  SteinerNetRouter(const spatial::ObstacleIndex& obstacles,
                   const spatial::EscapeLineSet& lines,
                   const CostModel* cost = nullptr)
      : router_(obstacles, lines, cost), lines_(lines) {}

  /// Routes a net given its terminals as pin-position lists.  The first
  /// terminal seeds the tree; terminals then join in cheapest-connection
  /// order.  On failure (some terminal unreachable) `ok` is false and the
  /// partial tree is returned.
  ///
  /// A net that cannot route at all fails up front, with no search: an
  /// empty terminal list, a pinless terminal, or any pin that is not
  /// routable in this router's obstacle set (inside a cell, or swallowed by
  /// a wire halo committed in sequential routing) gives a default
  /// `NetRoute{}` — `ok` false, no segments, zero stats.
  [[nodiscard]] NetRoute route_terminals(
      const std::vector<std::vector<geom::Point>>& terminals,
      const SteinerOptions& opts = {}) const;

  /// Convenience: resolve a layout net's terminal references and route it.
  [[nodiscard]] NetRoute route_net(const layout::Layout& lay,
                                   const layout::Net& net,
                                   const SteinerOptions& opts = {}) const;

  [[nodiscard]] const GridlessRouter& router() const noexcept {
    return router_;
  }

 private:
  /// Workspace of route_terminals: the tree being grown and the sources
  /// and goals rebuilt on *every* tree-growth step, the hot path of every
  /// multi-terminal net (and, via the serving layer, of every request).
  /// One instance per thread keeps its capacity across steps and nets, so
  /// a warm thread grows a tree without reallocating, and the router itself
  /// stays const-shared across the batch driver's threads.
  struct ConnectScratch {
    std::vector<geom::Point> sources;
    std::vector<geom::Point> goals;
    std::vector<geom::Coord> crossings;
    std::vector<geom::Point> connected_pins;
    std::vector<char> joined;  ///< per terminal: already in the tree
    std::vector<geom::Segment> tree;
  };

  /// The finite realization of "all line segments are potential connection
  /// points": pins already connected, segment endpoints, escape-line
  /// crossings on each segment, and each goal pin's perpendicular
  /// projection onto each segment.  Fills \p scratch.sources (sorted for
  /// deterministic seeding) from \p scratch.goals and the tree.
  void connection_points(ConnectScratch& scratch,
                         const std::vector<geom::Point>& connected_pins,
                         const std::vector<geom::Segment>& tree,
                         bool segments_allowed) const;

  GridlessRouter router_;
  const spatial::EscapeLineSet& lines_;
};

/// Resolves every pin position of a net's terminals (cell terminals and pad
/// terminals alike).
[[nodiscard]] std::vector<std::vector<geom::Point>> net_terminal_pins(
    const layout::Layout& lay, const layout::Net& net);

/// Bounding box of every pin of a net's terminals; empty for a pinless net.
/// Its half-perimeter is the Manhattan lower bound for connecting the net.
[[nodiscard]] std::optional<geom::Rect> terminal_bbox(
    const layout::Layout& lay, const layout::Net& net);

}  // namespace gcr::route
