#include "detail/track_router.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/steiner.hpp"

namespace gcr::detail {

using geom::Coord;
using geom::Point;
using geom::Rect;

namespace {

/// Search-space adapter over the two-layer fabric.  Moves: +-x on layer 0,
/// +-y on layer 1, via between layers.  Cells owned by other nets block.
class TrackSpace {
 public:
  using State = TrackPoint;

  TrackSpace(const std::vector<std::uint32_t>& owner, std::int32_t nx,
             std::int32_t ny, Coord pitch, geom::Cost via_cost,
             std::uint32_t net, TrackPoint goal)
      : owner_(owner),
        nx_(nx),
        ny_(ny),
        pitch_(pitch),
        via_cost_(via_cost),
        net_(net),
        goal_(goal) {}

  void successors(const State& s,
                  std::vector<search::Successor<State>>& out) const {
    const auto try_push = [&](TrackPoint p, geom::Cost c) {
      if (p.ix < 0 || p.ix >= nx_ || p.iy < 0 || p.iy >= ny_) return;
      if (!usable(p)) return;
      out.push_back({p, c});
    };
    if (s.layer == 0) {  // horizontal layer
      try_push({s.ix + 1, s.iy, 0}, pitch_);
      try_push({s.ix - 1, s.iy, 0}, pitch_);
    } else {  // vertical layer
      try_push({s.ix, s.iy + 1, 1}, pitch_);
      try_push({s.ix, s.iy - 1, 1}, pitch_);
    }
    try_push({s.ix, s.iy, static_cast<std::uint8_t>(1 - s.layer)},
             via_cost_ * pitch_);
  }

  [[nodiscard]] geom::Cost heuristic(const State& s) const {
    // Manhattan to the goal column/row, layer-agnostic: admissible.
    return (geom::coord_abs_diff(s.ix, goal_.ix) +
            geom::coord_abs_diff(s.iy, goal_.iy)) *
           pitch_;
  }

  [[nodiscard]] bool is_goal(const State& s) const {
    return s.ix == goal_.ix && s.iy == goal_.iy;
  }

 private:
  [[nodiscard]] bool usable(const TrackPoint& p) const {
    const std::uint32_t o =
        owner_[(static_cast<std::size_t>(p.layer) *
                    static_cast<std::size_t>(ny_) +
                static_cast<std::size_t>(p.iy)) *
                   static_cast<std::size_t>(nx_) +
               static_cast<std::size_t>(p.ix)];
    return o == 0xFFFFFFFFu || o == net_;
  }

  const std::vector<std::uint32_t>& owner_;
  std::int32_t nx_, ny_;
  Coord pitch_;
  geom::Cost via_cost_;
  std::uint32_t net_;
  TrackPoint goal_;
};

}  // namespace

TrackRouter::TrackRouter(const layout::Layout& lay, TrackRouteOptions opts)
    : origin_(lay.boundary().ll()), opts_(opts) {
  const Rect& b = lay.boundary();
  nx_ = static_cast<std::int32_t>(b.width() / opts_.pitch) + 1;
  ny_ = static_cast<std::int32_t>(b.height() / opts_.pitch) + 1;
  owner_.assign(2 * static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_),
                kFree);

  // Macros block both layers (no over-the-cell routing in a 1984 two-layer
  // process).  Open interiors only: pins on boundaries stay reachable.
  for (const Rect& r : lay.obstacles()) {
    const auto first_inside = [this](Coord lo, Coord org) {
      return static_cast<std::int32_t>((lo - org) / opts_.pitch) + 1;
    };
    const auto last_inside = [this](Coord hi, Coord org) {
      Coord q = (hi - org) / opts_.pitch;
      if (org + q * opts_.pitch >= hi) --q;
      return static_cast<std::int32_t>(q);
    };
    const std::int32_t ix0 = std::max(0, first_inside(r.xlo, origin_.x));
    const std::int32_t ix1 = std::min(nx_ - 1, last_inside(r.xhi, origin_.x));
    const std::int32_t iy0 = std::max(0, first_inside(r.ylo, origin_.y));
    const std::int32_t iy1 = std::min(ny_ - 1, last_inside(r.yhi, origin_.y));
    for (std::int32_t iy = iy0; iy <= iy1; ++iy) {
      for (std::int32_t ix = ix0; ix <= ix1; ++ix) {
        owner_[flat(ix, iy, 0)] = kBlocked;
        owner_[flat(ix, iy, 1)] = kBlocked;
      }
    }
  }
}

bool TrackRouter::usable(const TrackPoint& p, std::uint32_t net) const {
  const std::uint32_t o = owner_[flat(p.ix, p.iy, p.layer)];
  return o == kFree || o == net;
}

bool TrackRouter::route_connection(std::size_t net, const Point& a,
                                   const Point& b, TrackRealization& out) {
  const std::uint32_t net32 = static_cast<std::uint32_t>(net);
  // Snap to the nearest fabric cell usable by this net (pins sit on cell
  // boundaries, which may rasterize a half-pitch inside the macro; the ring
  // search escapes to the adjacent routable column/row).
  const auto snap = [this, net32](const Point& p) -> TrackPoint {
    const TrackPoint c{
        static_cast<std::int32_t>(std::clamp<Coord>(
            (p.x - origin_.x + opts_.pitch / 2) / opts_.pitch, 0, nx_ - 1)),
        static_cast<std::int32_t>(std::clamp<Coord>(
            (p.y - origin_.y + opts_.pitch / 2) / opts_.pitch, 0, ny_ - 1)),
        0};
    const auto ok = [&](std::int32_t ix, std::int32_t iy) {
      if (ix < 0 || ix >= nx_ || iy < 0 || iy >= ny_) return false;
      return usable(TrackPoint{ix, iy, 0}, net32) ||
             usable(TrackPoint{ix, iy, 1}, net32);
    };
    if (ok(c.ix, c.iy)) return c;
    for (std::int32_t ring = 1; ring < std::max(nx_, ny_); ++ring) {
      for (std::int32_t dx = -ring; dx <= ring; ++dx) {
        const std::int32_t rem = ring - (dx < 0 ? -dx : dx);
        for (const std::int32_t dy : {-rem, rem}) {
          if (ok(c.ix + dx, c.iy + dy)) {
            return TrackPoint{c.ix + dx, c.iy + dy, 0};
          }
          if (rem == 0) break;
        }
      }
    }
    return c;  // fully blocked fabric: let the search fail cleanly
  };
  TrackPoint start = snap(a);
  TrackPoint goal = snap(b);
  if (start.ix == goal.ix && start.iy == goal.iy) return true;

  const TrackSpace space(owner_, nx_, ny_, opts_.pitch, opts_.via_cost, net32,
                         goal);
  search::Searcher<TrackSpace> searcher;
  search::SearchOptions sopts;
  sopts.strategy = search::Strategy::kAStar;
  sopts.max_expansions = opts_.max_expansions;
  // Seed both layers at the start pin (a pin is reachable on either layer).
  std::vector<TrackPoint> starts;
  for (const std::uint8_t l : {0, 1}) {
    TrackPoint s = start;
    s.layer = l;
    if (usable(s, net32)) starts.push_back(s);
  }
  if (starts.empty()) return false;
  const auto result = searcher.run(space, starts, sopts);
  out.stats += result.stats;
  if (!result.found) return false;

  // Commit the wire to the fabric and record it.
  TrackWire wire;
  wire.net = net;
  geom::Cost length = 0;
  for (std::size_t i = 0; i < result.path.size(); ++i) {
    const TrackPoint& p = result.path[i];
    owner_[flat(p.ix, p.iy, p.layer)] = net32;
    wire.points.push_back(Point{origin_.x + p.ix * opts_.pitch,
                                origin_.y + p.iy * opts_.pitch});
    wire.layers.push_back(p.layer);
    if (i > 0) {
      const TrackPoint& q = result.path[i - 1];
      if (p.layer != q.layer) {
        ++out.via_count;
      } else {
        length += opts_.pitch;
      }
    }
  }
  out.total_wirelength += length;
  out.wires.push_back(std::move(wire));
  return true;
}

TrackRealization TrackRouter::realize(const route::NetlistResult& global) {
  TrackRealization out;
  for (std::size_t n = 0; n < global.routes.size(); ++n) {
    const route::NetRoute& nr = global.routes[n];
    if (!nr.ok) continue;
    // Re-route each global connection endpoint-to-endpoint at track level.
    for (const route::Route& conn : nr.connections) {
      if (conn.points.size() < 2) continue;
      if (route_connection(n, conn.points.front(), conn.points.back(), out)) {
        ++out.connections_routed;
      } else {
        ++out.connections_failed;
      }
    }
  }
  return out;
}

}  // namespace gcr::detail
