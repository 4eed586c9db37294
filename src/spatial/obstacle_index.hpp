#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "geometry/geometry.hpp"
#include "spatial/free_space.hpp"

/// \file obstacle_index.hpp
/// Spatial index over the blocking rectangles of a layout.
///
/// The paper: "All points are linked to reflect their topological order in
/// both x and y. ... By maintaining the topological ordering, an efficient
/// means of ray-tracing is used to expand the frontiers of the search."
/// This index realizes that idea with obstacle edge tables sorted per probe
/// direction, so a ray-trace is a binary search plus a short forward scan.
///
/// The index is *incrementally updatable* in both directions.  `insert` adds
/// one obstacle (a routed wire's spacing halo, in sequential-mode routing)
/// by splicing it into the sorted edge tables and the spatial bucket grid,
/// so committing a routed net costs O(obstacles) table maintenance instead
/// of a full O(n log n) rebuild.  `remove` — the rip-up direction — is a
/// *tombstone*: the obstacle stays in the tables and buckets but every query
/// skips it, so ripping a wire out costs O(1) plus the query-side skips.
/// Tombstones accumulate across rip-up cycles; `compact` erases them,
/// renumbers the survivors, and re-derives the bucket grid, and callers that
/// hold obstacle indices (the escape-line set, the environment's per-net
/// records) renumber through the remap it returns.  Point/segment predicates
/// are answered from a uniform bucket grid over the boundary rather than a
/// linear scan, which keeps them fast as wire halos accumulate.
///
/// The index also owns the connected-component labels of the free space
/// (`components`).  The constructor and `compact` build them; `insert` and
/// `remove` only mark them stale, and the next `components()` call rebuilds
/// them once for the whole batch of mutations, into the same arrays.

namespace gcr::spatial {

/// Result of tracing a ray from a point until it would enter an obstacle's
/// open interior or leave the routing boundary.
struct RayHit {
  /// Coordinate (along the probe axis) at which the ray must stop.  The stop
  /// point itself is reachable: it lies on the blocking obstacle's boundary
  /// (the "hug" position) or on the routing boundary.
  geom::Coord stop = 0;
  /// Index of the blocking obstacle, or nullopt when the routing boundary
  /// stopped the ray.
  std::optional<std::size_t> obstacle;
};

/// Obstacle index.  Obstacles are closed rectangles whose *open* interiors
/// block routing; their boundaries are routable (paths may hug cells).  The
/// routing boundary clips all rays.
///
/// Read-only operations are safe to share across threads; `insert` and
/// `remove` require exclusive access (sequential-mode routing mutates a
/// private copy).  The lazy label rebuild in `components()` runs under that
/// same exclusive access: an index that is shared read-only was built or
/// compacted and not mutated since, so its labels are never stale.
class ObstacleIndex {
 public:
  ObstacleIndex() = default;
  ObstacleIndex(geom::Rect boundary, std::vector<geom::Rect> obstacles);

  [[nodiscard]] const geom::Rect& boundary() const noexcept {
    return boundary_;
  }
  /// Every obstacle ever inserted, *including tombstoned ones* (their slots
  /// keep the removed geometry until `compact`); filter with `alive`.
  [[nodiscard]] const std::vector<geom::Rect>& obstacles() const noexcept {
    return obstacles_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return obstacles_.size(); }
  /// Obstacles that still block routing (size() minus tombstones).
  [[nodiscard]] std::size_t live_size() const noexcept {
    return obstacles_.size() - dead_count_;
  }
  [[nodiscard]] std::size_t dead_count() const noexcept { return dead_count_; }
  [[nodiscard]] bool alive(std::size_t idx) const noexcept {
    return idx < obstacles_.size() && dead_[idx] == 0;
  }

  /// Incrementally adds \p r as obstacle index `size()`.  Equivalent to
  /// rebuilding the index over the extended obstacle list: every subsequent
  /// query answers exactly as a from-scratch index would.  The rectangle may
  /// extend past the routing boundary (wire halos inflate beyond it); the
  /// out-of-boundary part only matters to `interior`, since rays are
  /// boundary-clipped anyway.
  void insert(const geom::Rect& r);

  /// Tombstones obstacle \p idx: it stops blocking every query, exactly as
  /// if the index had been rebuilt without it, but its slots linger in the
  /// edge tables and buckets until `compact`.  Indices of other obstacles
  /// are untouched.  Idempotent — removing a dead or out-of-range index is a
  /// no-op — and returns whether this call actually removed it, so a caller
  /// retrying after a failed multi-obstacle update can skip the side effects
  /// it already applied.  Never throws.
  bool remove(std::size_t idx) noexcept;

  /// Erases every tombstone, renumbers the survivors (stable order), re-sorts
  /// the edge tables, and re-derives the bucket grid resolution.  Returns the
  /// renumbering: remap[old] is the new index, or `npos` for removed
  /// obstacles.  Queries answer identically before and after.
  std::vector<std::size_t> compact();

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// True when \p p lies strictly inside some obstacle (an illegal position
  /// for any route point).
  [[nodiscard]] bool interior(const geom::Point& p) const;

  /// True when \p p lies on the boundary of some live obstacle (a "hugging"
  /// point).  Answered from \p p's bucket; tombstones do not count.
  [[nodiscard]] bool on_boundary(const geom::Point& p) const;

  /// True when \p p is routable: inside the boundary and not interior to any
  /// obstacle.
  [[nodiscard]] bool routable(const geom::Point& p) const;

  /// True when the axis-parallel segment crosses any obstacle's open
  /// interior.  Segments hugging boundaries are legal.
  [[nodiscard]] bool segment_blocked(const geom::Segment& s) const;

  /// Traces a ray from \p p in direction \p d.  Returns where the ray stops
  /// and what stopped it.  When \p p sits directly against a blocking edge,
  /// stop == p's own coordinate and the ray has zero extent.  Origins
  /// outside the boundary (wire-halo corners inflate past it) are legal and
  /// clamp the same way: the ray never travels backwards, so the stop never
  /// precedes the origin in the travel direction.
  [[nodiscard]] RayHit trace(const geom::Point& p, geom::Dir d) const;

  /// Connected components of the free space (the routable points), current
  /// for the live obstacles: rebuilt here first if an `insert` or `remove`
  /// ran since the last build.
  [[nodiscard]] const FreeSpaceComponents& components() const {
    if (components_stale_) {
      components_.build(boundary_, obstacles_, dead_);
      components_stale_ = false;
    }
    return components_;
  }

  /// Obstacles whose closed extent intersects \p query (for region analyses,
  /// e.g. congestion passage extraction).  Ascending obstacle index.
  [[nodiscard]] std::vector<std::size_t> query(const geom::Rect& query) const;

 private:
  /// (Re)derives the bucket grid geometry from the boundary and obstacle
  /// count, then files every obstacle.  Called by the building constructor;
  /// `insert` files into the existing grid instead (grid resolution is fixed
  /// at construction — the incremental path trades ideal bucket occupancy
  /// for O(cells-covered) insertion).
  void build_buckets();
  void file_into_buckets(std::size_t idx);
  [[nodiscard]] std::size_t bucket_x(geom::Coord x) const noexcept;
  [[nodiscard]] std::size_t bucket_y(geom::Coord y) const noexcept;

  geom::Rect boundary_;
  std::vector<geom::Rect> obstacles_;
  /// Tombstone flags, parallel to obstacles_ (char, not bool: the hot query
  /// loops index it and vector<bool>'s proxy defeats the optimizer).
  std::vector<char> dead_;
  std::size_t dead_count_ = 0;

  /// Edge tables: obstacle indices sorted by the coordinate of the edge a ray
  /// travelling in the keyed direction would hit first (east rays hit left
  /// edges, sorted ascending by xlo, etc.).  Zero-area obstacles are left
  /// out: with no interior, they block no ray.
  std::vector<std::size_t> by_xlo_;  // east probes
  std::vector<std::size_t> by_xhi_;  // west probes (descending xhi)
  std::vector<std::size_t> by_ylo_;  // north probes
  std::vector<std::size_t> by_yhi_;  // south probes (descending yhi)

  /// Uniform bucket grid over the boundary: buckets_[gy * grid_x_ + gx]
  /// lists (ascending) the obstacles whose closed extent touches that cell.
  /// Coordinates outside the boundary clamp to the edge cells, so obstacles
  /// protruding past the boundary are still filed where a clamped point
  /// lookup will find them.
  std::size_t grid_x_ = 1, grid_y_ = 1;
  geom::Coord cell_w_ = 1, cell_h_ = 1;
  std::vector<std::vector<std::size_t>> buckets_;

  /// Free-space labels; stale after a mutation until `components()`.
  mutable FreeSpaceComponents components_;
  mutable bool components_stale_ = true;
};

}  // namespace gcr::spatial
