#include "spatial/obstacle_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

namespace gcr::spatial {

using geom::Axis;
using geom::Coord;
using geom::Dir;
using geom::Point;
using geom::Rect;
using geom::Segment;

ObstacleIndex::ObstacleIndex(Rect boundary, std::vector<Rect> obstacles)
    : boundary_(boundary), obstacles_(std::move(obstacles)) {
  const std::size_t n = obstacles_.size();
  dead_.assign(n, 0);
  const auto& obs = obstacles_;
  // Only an interior blocks a ray: a zero-area obstacle (a line or a point)
  // is all boundary, and boundaries are routable, so no edge table lists it.
  by_xlo_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (obs[i].proper()) by_xlo_.push_back(i);
  }
  by_xhi_ = by_ylo_ = by_yhi_ = by_xlo_;
  std::sort(by_xlo_.begin(), by_xlo_.end(), [&obs](std::size_t a, std::size_t b) {
    return obs[a].xlo < obs[b].xlo;
  });
  std::sort(by_xhi_.begin(), by_xhi_.end(), [&obs](std::size_t a, std::size_t b) {
    return obs[a].xhi > obs[b].xhi;
  });
  std::sort(by_ylo_.begin(), by_ylo_.end(), [&obs](std::size_t a, std::size_t b) {
    return obs[a].ylo < obs[b].ylo;
  });
  std::sort(by_yhi_.begin(), by_yhi_.end(), [&obs](std::size_t a, std::size_t b) {
    return obs[a].yhi > obs[b].yhi;
  });
  build_buckets();
  components_.build(boundary_, obstacles_, dead_);
  components_stale_ = false;
}

void ObstacleIndex::build_buckets() {
  // Aim for ~1 obstacle per cell: a g x g grid with g = ceil(sqrt(n)).
  // Sequential-mode wire halos keep inserting into this fixed grid; even if
  // the obstacle count grows well past n, occupancy degrades gracefully (a
  // rebuild re-derives the resolution).
  const std::size_t n = obstacles_.size();
  const std::size_t g = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(std::sqrt(static_cast<double>(n)))));
  const Coord w = std::max<Coord>(1, boundary_.width());
  const Coord h = std::max<Coord>(1, boundary_.height());
  grid_x_ = std::min<std::size_t>(g, static_cast<std::size_t>(w));
  grid_y_ = std::min<std::size_t>(g, static_cast<std::size_t>(h));
  cell_w_ = (w + static_cast<Coord>(grid_x_) - 1) / static_cast<Coord>(grid_x_);
  cell_h_ = (h + static_cast<Coord>(grid_y_) - 1) / static_cast<Coord>(grid_y_);
  buckets_.assign(grid_x_ * grid_y_, {});
  for (std::size_t i = 0; i < n; ++i) file_into_buckets(i);
}

std::size_t ObstacleIndex::bucket_x(Coord x) const noexcept {
  if (x <= boundary_.xlo) return 0;
  const std::size_t gx = static_cast<std::size_t>((x - boundary_.xlo) / cell_w_);
  return std::min(gx, grid_x_ - 1);
}

std::size_t ObstacleIndex::bucket_y(Coord y) const noexcept {
  if (y <= boundary_.ylo) return 0;
  const std::size_t gy = static_cast<std::size_t>((y - boundary_.ylo) / cell_h_);
  return std::min(gy, grid_y_ - 1);
}

void ObstacleIndex::file_into_buckets(std::size_t idx) {
  const Rect& r = obstacles_[idx];
  const std::size_t x0 = bucket_x(r.xlo), x1 = bucket_x(r.xhi);
  const std::size_t y0 = bucket_y(r.ylo), y1 = bucket_y(r.yhi);
  for (std::size_t gy = y0; gy <= y1; ++gy) {
    for (std::size_t gx = x0; gx <= x1; ++gx) {
      buckets_[gy * grid_x_ + gx].push_back(idx);
    }
  }
}

void ObstacleIndex::insert(const Rect& r) {
  const std::size_t idx = obstacles_.size();
  // Grow the parallel arrays before touching any table: if a later splice
  // throws (allocation), the rect and its live flag are already consistent,
  // so a rebuild over `obstacles_` recovers a coherent index (the
  // environment's invalidation contract relies on this).
  components_stale_ = true;
  obstacles_.push_back(r);
  dead_.push_back(0);
  const auto& obs = obstacles_;
  // A default-constructed index never ran build_buckets (the building ctor
  // did); lay the grid out now — it files the new obstacle too.
  const bool grid_ready = !buckets_.empty();
  if (!grid_ready) build_buckets();

  // Splice into each sorted edge table; equal keys keep the new entry after
  // existing ones (upper_bound), so insertion is deterministic.  A
  // zero-area obstacle stays out, as in the building constructor.
  const bool blocks_rays = obs[idx].proper();
  const auto splice = [idx, blocks_rays](std::vector<std::size_t>& table,
                                         auto&& less_key) {
    if (!blocks_rays) return;
    table.insert(std::upper_bound(table.begin(), table.end(), idx, less_key),
                 idx);
  };
  splice(by_xlo_, [&obs](std::size_t a, std::size_t b) {
    return obs[a].xlo < obs[b].xlo;
  });
  splice(by_xhi_, [&obs](std::size_t a, std::size_t b) {
    return obs[a].xhi > obs[b].xhi;
  });
  splice(by_ylo_, [&obs](std::size_t a, std::size_t b) {
    return obs[a].ylo < obs[b].ylo;
  });
  splice(by_yhi_, [&obs](std::size_t a, std::size_t b) {
    return obs[a].yhi > obs[b].yhi;
  });
  if (grid_ready) file_into_buckets(idx);
}

bool ObstacleIndex::remove(std::size_t idx) noexcept {
  if (idx >= obstacles_.size() || dead_[idx] != 0) return false;
  dead_[idx] = 1;
  ++dead_count_;
  components_stale_ = true;
  return true;
}

std::vector<std::size_t> ObstacleIndex::compact() {
  std::vector<std::size_t> remap(obstacles_.size(), npos);
  std::vector<Rect> live;
  live.reserve(obstacles_.size() - dead_count_);
  for (std::size_t i = 0; i < obstacles_.size(); ++i) {
    if (dead_[i] != 0) continue;
    remap[i] = live.size();
    live.push_back(obstacles_[i]);
  }
  // The building constructor already does everything a compaction needs:
  // stable renumbering happened above, and rebuilding re-sorts the tables
  // and re-derives the bucket resolution for the shrunken count.
  *this = ObstacleIndex(boundary_, std::move(live));
  return remap;
}

bool ObstacleIndex::interior(const Point& p) const {
  if (buckets_.empty()) return false;
  const auto& bucket = buckets_[bucket_y(p.y) * grid_x_ + bucket_x(p.x)];
  return std::any_of(bucket.begin(), bucket.end(), [&](std::size_t i) {
    return dead_[i] == 0 && obstacles_[i].contains_open(p);
  });
}

bool ObstacleIndex::on_boundary(const Point& p) const {
  if (buckets_.empty()) return false;
  const auto& bucket = buckets_[bucket_y(p.y) * grid_x_ + bucket_x(p.x)];
  return std::any_of(bucket.begin(), bucket.end(), [&](std::size_t i) {
    return dead_[i] == 0 && obstacles_[i].on_boundary(p);
  });
}

bool ObstacleIndex::routable(const Point& p) const {
  return boundary_.contains(p) && !interior(p);
}

bool ObstacleIndex::segment_blocked(const Segment& s) const {
  if (buckets_.empty()) return false;
  const Rect b = s.bounds();
  const std::size_t x0 = bucket_x(b.xlo), x1 = bucket_x(b.xhi);
  const std::size_t y0 = bucket_y(b.ylo), y1 = bucket_y(b.yhi);
  for (std::size_t gy = y0; gy <= y1; ++gy) {
    for (std::size_t gx = x0; gx <= x1; ++gx) {
      for (const std::size_t i : buckets_[gy * grid_x_ + gx]) {
        if (dead_[i] == 0 && s.pierces(obstacles_[i])) return true;
      }
    }
  }
  return false;
}

RayHit ObstacleIndex::trace(const Point& p, Dir d) const {
  RayHit hit;
  const Axis ax = axis_of(d);
  const Axis perp = other(ax);
  const Coord pos = p.along(ax);
  const Coord off = p.along(perp);

  // Boundary clip: the farthest the ray can possibly go.
  switch (d) {
    case Dir::kEast: hit.stop = boundary_.xhi; break;
    case Dir::kWest: hit.stop = boundary_.xlo; break;
    case Dir::kNorth: hit.stop = boundary_.yhi; break;
    case Dir::kSouth: hit.stop = boundary_.ylo; break;
  }

  // An obstacle blocks the ray iff the perpendicular coordinate lies strictly
  // inside its perpendicular span (boundaries are routable) and its near edge
  // is at or ahead of the ray origin.  The edge tables are sorted by near-edge
  // coordinate in travel order, so we scan from the first edge at or past the
  // origin and stop once edges lie beyond the best stop found so far.
  const auto scan = [&](const std::vector<std::size_t>& table, int sgn) {
    // Binary search for the first table entry whose near edge is not behind p.
    const auto near_edge = [&](std::size_t idx) -> Coord {
      const Rect& r = obstacles_[idx];
      switch (d) {
        case Dir::kEast: return r.xlo;
        case Dir::kWest: return r.xhi;
        case Dir::kNorth: return r.ylo;
        case Dir::kSouth: return r.yhi;
      }
      return 0;
    };
    auto it = std::lower_bound(
        table.begin(), table.end(), pos,
        [&](std::size_t idx, Coord v) { return sgn * near_edge(idx) < sgn * v; });
    for (; it != table.end(); ++it) {
      const Coord edge = near_edge(*it);
      if (sgn * edge > sgn * hit.stop) break;  // beyond current stop: done
      if (dead_[*it] != 0) continue;           // tombstoned (ripped-up halo)
      const Rect& r = obstacles_[*it];
      if (!r.span(perp).contains_open(off)) continue;
      // This obstacle's interior starts at `edge` in travel direction; the
      // ray must stop on its boundary.
      if (sgn * edge < sgn * hit.stop ||
          (edge == hit.stop && !hit.obstacle.has_value())) {
        hit.stop = edge;
        hit.obstacle = *it;
      }
    }
  };

  switch (d) {
    case Dir::kEast: scan(by_xlo_, +1); break;
    case Dir::kWest: scan(by_xhi_, -1); break;
    case Dir::kNorth: scan(by_ylo_, +1); break;
    case Dir::kSouth: scan(by_yhi_, -1); break;
  }

  // A ray never travels backwards: if every blocker is behind p (possible
  // when p hugs an edge, or when p lies outside the boundary — a wire-halo
  // corner inflated past it), the stop clamps to p itself.
  if (sign_of(d) > 0) {
    hit.stop = std::max(hit.stop, pos);
  } else {
    hit.stop = std::min(hit.stop, pos);
  }
  return hit;
}

std::vector<std::size_t> ObstacleIndex::query(const Rect& q) const {
  std::vector<std::size_t> out;
  if (buckets_.empty() || q.empty()) return out;
  const std::size_t x0 = bucket_x(q.xlo), x1 = bucket_x(q.xhi);
  const std::size_t y0 = bucket_y(q.ylo), y1 = bucket_y(q.yhi);
  for (std::size_t gy = y0; gy <= y1; ++gy) {
    for (std::size_t gx = x0; gx <= x1; ++gx) {
      for (const std::size_t i : buckets_[gy * grid_x_ + gx]) {
        if (dead_[i] == 0 && obstacles_[i].intersects(q)) out.push_back(i);
      }
    }
  }
  // An obstacle spanning several cells is collected once per cell; callers
  // expect ascending unique indices (the linear-scan contract).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace gcr::spatial
