#pragma once

#include <cstdint>
#include <vector>

#include "geometry/geometry.hpp"

/// \file free_space.hpp
/// Connected components of the free routing space.
///
/// The free space F is the closed routing boundary minus the open interiors
/// of the live obstacles — exactly the set of `routable` points.  Every
/// probe the line search makes stays inside F (a ray stops at the first
/// open interior and is clipped to the boundary), so two points in
/// different components of F have no path between them, whatever the
/// search strategy, cost model or successor rule.  That is the paper's
/// "avoiding nets" case made cheap: a terminal walled in by committed wire
/// halos is proved unreachable by comparing two labels instead of by an
/// exhaustive search.
///
/// The labels come from a vertical slab decomposition.  There is one
/// *column* per distinct obstacle x-edge inside the boundary (plus the two
/// boundary sides) and one per open slab between two consecutive edges.
/// Across a column the set of blocking obstacles is constant, so its free
/// set is a sorted list of disjoint closed y-intervals; each interval is
/// joined (union-find) with the intervals of the neighbouring column it
/// touches.  The labels are therefore exact, not merely conservative: two
/// free points share a label iff a path in F joins them.

namespace gcr::spatial {

class FreeSpaceComponents {
 public:
  /// Component label of a free point; `kNone` marks a point outside F.
  using Label = std::uint32_t;
  static constexpr Label kNone = static_cast<Label>(-1);

  /// Labels the free space of \p boundary minus the open interiors of the
  /// obstacles whose \p dead flag is 0 (parallel to \p obstacles).  Reuses
  /// every array of a previous build, so a warm rebuild allocates nothing
  /// unless the decomposition outgrows it.
  void build(const geom::Rect& boundary,
             const std::vector<geom::Rect>& obstacles,
             const std::vector<char>& dead);

  /// \p p's component: two binary searches and a table read.  `kNone` when
  /// \p p lies outside the boundary or inside a live obstacle.
  [[nodiscard]] Label label(const geom::Point& p) const noexcept;

  /// True when every point of \p a and \p b is free and no point of \p b
  /// shares a component with a point of \p a — a proof that no route joins
  /// the two sets.  Empty sets and unlabelled points prove nothing (false).
  [[nodiscard]] bool separated(const std::vector<geom::Point>& a,
                               const std::vector<geom::Point>& b) const noexcept;

 private:
  /// Appends the free intervals of the column the current `active_` set
  /// blocks, and joins them with the previous column's touching intervals.
  /// A column whose blocking set has not \p changed shares the previous
  /// column's intervals instead.
  void emit_column(const geom::Rect& boundary, bool changed);
  [[nodiscard]] std::uint32_t find(std::uint32_t k) noexcept;

  /// Build scratch: the live obstacles whose interior meets the boundary,
  /// by xlo; and those blocking the current column, by ylo.
  std::vector<geom::Rect> order_;
  std::vector<geom::Rect> active_;

  /// Line-column x coordinates, ascending.  Column 2i is the line x = xs_[i]
  /// and column 2i+1 the open slab (xs_[i], xs_[i+1]).
  std::vector<geom::Coord> xs_;
  /// Column c's free y-intervals are ivs_[cols_[c].begin, cols_[c].end),
  /// ascending and disjoint.  Neighbouring columns blocked by the same
  /// obstacles share one range.
  struct Range {
    std::uint32_t begin, end;
  };
  std::vector<Range> cols_;
  std::vector<geom::Interval> ivs_;
  /// Union-find parent of each interval during the build; afterwards every
  /// entry is its component's root, which is the label.
  std::vector<std::uint32_t> comp_;
};

}  // namespace gcr::spatial
