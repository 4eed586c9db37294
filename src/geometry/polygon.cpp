#include "geometry/polygon.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

namespace gcr::geom {

OrthoPolygon::OrthoPolygon(std::vector<Point> vertices)
    : vertices_(std::move(vertices)) {}

OrthoPolygon OrthoPolygon::from_rect(const Rect& r) {
  return OrthoPolygon{{r.ll(), r.lr(), r.ur(), r.ul()}};
}

std::vector<Segment> OrthoPolygon::edges() const {
  std::vector<Segment> out;
  out.reserve(vertices_.size());
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % vertices_.size()];
    out.emplace_back(a, b);
  }
  return out;
}

bool OrthoPolygon::valid() const {
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
  const auto es = edges();
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

Rect OrthoPolygon::bounding_box() const noexcept {
  Rect r;  // empty
  for (const Point& p : vertices_) r = r.hull(Rect{p, p});
  return r;
}

Cost OrthoPolygon::area() const {
  // Shoelace formula; orthogonal polygons give exact integer areas.
  Cost twice = 0;
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    twice += a.x * b.y - b.x * a.y;
  }
  return twice < 0 ? -twice / 2 : twice / 2;
}

std::vector<Rect> OrthoPolygon::decompose() const {
  // Vertical slab decomposition: slice the plane at every distinct vertex x;
  // inside each slab the polygon's cross-section is a fixed set of y-ranges
  // delimited by the horizontal edges spanning the slab (even-odd pairing).
  std::vector<Rect> out;
  if (vertices_.empty()) return out;

  std::vector<Coord> xs;
  xs.reserve(vertices_.size());
  for (const Point& p : vertices_) xs.push_back(p.x);
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  const auto es = edges();
  for (std::size_t s = 0; s + 1 < xs.size(); ++s) {
    const Interval slab{xs[s], xs[s + 1]};
    // Horizontal edges fully spanning this slab, sorted by track (y).
    std::vector<Coord> tracks;
    for (const Segment& e : es) {
      if (e.axis() != Axis::kX) continue;
      if (e.span().contains(slab)) tracks.push_back(e.track());
    }
    std::sort(tracks.begin(), tracks.end());
    assert(tracks.size() % 2 == 0 &&
           "simple orthogonal polygon has even crossings per slab");
    for (std::size_t i = 0; i + 1 < tracks.size(); i += 2) {
      out.push_back(Rect{slab.lo, tracks[i], slab.hi, tracks[i + 1]});
    }
  }
  return out;
}

std::vector<Rect> OrthoPolygon::blocking_rects() const {
  std::vector<Rect> rects = decompose();
  const std::size_t n = rects.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      // By value: the push_backs below can reallocate `rects`, and a
      // reference would dangle across them (caught by ASan).
      const Rect a = rects[i];
      const Rect b = rects[j];
      // Vertical seam: a's right edge coincides with b's left edge.
      if (a.xhi == b.xlo) {
        const Interval ov = a.ys().intersection(b.ys());
        if (ov.length() > 0) {
          rects.push_back(Rect{a.xhi - 1, ov.lo, b.xlo + 1, ov.hi});
        }
      }
      // Horizontal seam: a's top edge coincides with b's bottom edge.
      // (The vertical-slab decomposition never produces these, but the
      // cover is cheap insurance for future decompositions.)
      if (a.yhi == b.ylo) {
        const Interval ov = a.xs().intersection(b.xs());
        if (ov.length() > 0) {
          rects.push_back(Rect{ov.lo, a.yhi - 1, ov.hi, b.ylo + 1});
        }
      }
    }
  }
  return rects;
}

bool OrthoPolygon::contains(const Point& p) const {
  for (const Rect& r : decompose()) {
    if (r.contains(p)) return true;
  }
  return false;
}

bool OrthoPolygon::contains_open(const Point& p) const {
  if (!contains(p)) return false;
  // Interior iff contained and not on any boundary edge.
  for (const Segment& e : edges()) {
    if (e.contains(p)) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const OrthoPolygon& poly) {
  os << "poly{";
  for (std::size_t i = 0; i < poly.vertices().size(); ++i) {
    if (i) os << ' ';
    os << poly.vertices()[i];
  }
  return os << '}';
}

}  // namespace gcr::geom
