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

namespace {

/// True when two parallel edges share a point.  On one track, edges sorted
/// by span start overlap iff some start lies at or before the furthest end
/// seen so far on that track.
bool parallel_edges_touch(std::vector<std::pair<Coord, Interval>>& edges) {
  std::sort(edges.begin(), edges.end());
  for (std::size_t i = 1; i < edges.size(); ++i) {
    auto& [track, span] = edges[i];
    const auto& [prev_track, prev_span] = edges[i - 1];
    if (track != prev_track) continue;
    if (span.lo <= prev_span.hi) return true;
    span.hi = std::max(span.hi, prev_span.hi);  // carry the furthest end
  }
  return false;
}

/// Pairs (horizontal, vertical) of edges that share a point, counted by a
/// sweep in x over a Fenwick tree of the live horizontal edges' tracks;
/// stops once the count exceeds \p limit.
std::size_t perpendicular_touches(
    const std::vector<std::pair<Coord, Interval>>& horizontal,
    const std::vector<std::pair<Coord, Interval>>& vertical,
    std::size_t limit) {
  std::vector<Coord> ys;
  ys.reserve(horizontal.size());
  for (const auto& h : horizontal) ys.push_back(h.first);
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  std::vector<long long> tree(ys.size() + 1, 0);  // Fenwick, 1-based
  const auto add = [&](Coord y, int delta) {
    auto i = static_cast<std::size_t>(
                 std::lower_bound(ys.begin(), ys.end(), y) - ys.begin()) + 1;
    for (; i < tree.size(); i += i & (0 - i)) tree[i] += delta;
  };
  const auto below = [&](std::size_t i) {  // live tracks among ys[0, i)
    long long n = 0;
    for (; i > 0; i -= i & (0 - i)) n += tree[i];
    return static_cast<std::size_t>(n);
  };

  // Events at one x: horizontal edges starting there go live before the
  // vertical edges there are counted, and those ending there leave after.
  enum Kind { kStart, kQuery, kEnd };
  struct Event {
    Coord x;
    Kind kind;
    std::size_t idx;
  };
  std::vector<Event> events;
  events.reserve(2 * horizontal.size() + vertical.size());
  for (std::size_t i = 0; i < horizontal.size(); ++i) {
    events.push_back({horizontal[i].second.lo, kStart, i});
    events.push_back({horizontal[i].second.hi, kEnd, i});
  }
  for (std::size_t i = 0; i < vertical.size(); ++i) {
    events.push_back({vertical[i].first, kQuery, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.x != b.x ? a.x < b.x : a.kind < b.kind;
  });

  std::size_t touches = 0;
  for (const Event& e : events) {
    if (e.kind == kQuery) {
      const Interval& span = vertical[e.idx].second;
      const auto lo = static_cast<std::size_t>(
          std::lower_bound(ys.begin(), ys.end(), span.lo) - ys.begin());
      const auto hi = static_cast<std::size_t>(
          std::upper_bound(ys.begin(), ys.end(), span.hi) - ys.begin());
      touches += below(hi) - below(lo);
      if (touches > limit) return touches;
    } else {
      add(horizontal[e.idx].first, e.kind == kStart ? 1 : -1);
    }
  }
  return touches;
}

}  // namespace

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
  // No self-intersection: non-adjacent edges must not touch.  Adjacent
  // edges are perpendicular, so every two parallel edges are non-adjacent
  // and must not share a point; and the perpendicular pairs that touch are
  // exactly the n adjacent ones, which meet at their shared vertex.  Both
  // tests are sweeps, O(n log n): a LOAD body is untrusted input.
  std::vector<std::pair<Coord, Interval>> horizontal, vertical;
  horizontal.reserve(n / 2);
  vertical.reserve(n / 2);
  for (const Segment& e : edges()) {
    (e.horizontal() ? horizontal : vertical).emplace_back(e.track(), e.span());
  }
  if (parallel_edges_touch(horizontal) || parallel_edges_touch(vertical)) {
    return false;
  }
  if (perpendicular_touches(horizontal, vertical, n) != n) return false;
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
