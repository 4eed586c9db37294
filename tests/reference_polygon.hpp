#pragma once

#include <cstddef>
#include <set>

#include "geometry/polygon.hpp"

/// \file reference_polygon.hpp
/// Test oracle: `OrthoPolygon::valid()` as it was before the self-intersection
/// test became a sweep — an O(n^2) loop over every pair of edges.  Kept
/// verbatim so the sweep can be checked against it on random and adversarial
/// polygons.

namespace gcr::test {

inline bool reference_valid(const geom::OrthoPolygon& poly) {
  using namespace geom;
  const std::vector<Point>& vertices_ = poly.vertices();
  const std::size_t n = vertices_.size();
  if (n < 4 || n % 2 != 0) return false;
  // Axis-parallel edges alternating in axis, no zero-length edges.
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    if (a == b) return false;
    if (!colinear_rectilinear(a, b)) return false;
    const Point& c = vertices_[(i + 2) % n];
    const bool ab_vertical = a.x == b.x;
    const bool bc_vertical = b.x == c.x;
    if (ab_vertical == bc_vertical) return false;  // must alternate
  }
  // Distinct vertices.
  std::set<Point> uniq(vertices_.begin(), vertices_.end());
  if (uniq.size() != n) return false;
  // No self-intersection: non-adjacent edges must not touch.
  const auto es = poly.edges();
  for (std::size_t i = 0; i < es.size(); ++i) {
    for (std::size_t j = i + 1; j < es.size(); ++j) {
      const bool adjacent = (j == i + 1) || (i == 0 && j == es.size() - 1);
      if (adjacent) continue;
      if (es[i].crossing(es[j]).has_value()) return false;
      // Parallel overlap check.
      if (es[i].axis() == es[j].axis() && es[i].track() == es[j].track() &&
          es[i].span().overlaps(es[j].span())) {
        return false;
      }
    }
  }
  // Adjacent edges are perpendicular and meet only at their shared vertex,
  // and no two other edges touch, so the boundary is a simple closed curve
  // and encloses a positive area.  area() is not consulted: its shoelace
  // products overflow for untrusted coordinates far beyond any layout.
  return true;
}

}  // namespace gcr::test
