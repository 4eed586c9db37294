#include "core/cost_model.hpp"

#include <algorithm>

namespace gcr::route {

using geom::Dir;
using geom::Segment;

geom::Cost BendCost::penalty(const EdgeContext& ctx) const {
  const bool bend =
      ctx.from.in_dir != kNoDir &&
      axis_of(static_cast<Dir>(ctx.from.in_dir)) != axis_of(ctx.move);
  return bend ? epsilon_ : 0;
}

geom::Cost InvertedCornerCost::penalty(const EdgeContext& ctx) const {
  const bool bend =
      ctx.from.in_dir != kNoDir &&
      axis_of(static_cast<Dir>(ctx.from.in_dir)) != axis_of(ctx.move);
  if (!bend) return 0;
  // A bend hugging a cell is preferred; a floating bend is the inverted
  // corner's signature and pays epsilon.
  return ctx.obstacles.on_boundary(ctx.from.p) ? 0 : epsilon_;
}

geom::Cost RegionPenaltyCost::penalty(const EdgeContext& ctx) const {
  const Segment edge{ctx.from.p, ctx.to};
  geom::Cost sum = 0;
  for (const Region& r : regions_) {
    // Closed intersection: running along a congested passage's rim counts.
    if (edge.bounds().intersects(r.area)) sum += r.weight;
  }
  return sum;
}

geom::Cost HistoryCost::penalty(const EdgeContext& ctx) const {
  const Segment edge{ctx.from.p, ctx.to};
  geom::Cost sum = 0;
  for (const Region& r : regions_) {
    // Closed intersection, like RegionPenaltyCost: running along a
    // congested passage's rim counts as using it.
    if (!edge.bounds().intersects(r.area)) continue;
    // History is clamped so a pathological run cannot overflow the scaled
    // cost arithmetic; 1024 iterations of sustained overuse is already far
    // past any practical convergence horizon.
    const geom::Cost h = std::min<geom::Cost>(r.history, 1024);
    sum += r.present * (1 + h) + history_base_ * h;
  }
  return sum;
}

}  // namespace gcr::route
