#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/route_types.hpp"
#include "geometry/geometry.hpp"
#include "spatial/obstacle_index.hpp"

/// \file cost_model.hpp
/// Generalized cost functions.
///
/// "Because of the generality of the A* algorithm, the heuristic cost
/// function can be used to favor certain classes of routes over others."
/// A CostModel adds a non-negative *penalty* on top of the scaled rectilinear
/// length of each probe edge.  Penalties never subtract, so the Manhattan
/// heuristic stays a lower bound and A* stays admissible with respect to the
/// penalized cost.

namespace gcr::route {

/// Context handed to cost models when pricing one probe edge.
struct EdgeContext {
  const spatial::ObstacleIndex& obstacles;
  /// State the probe leaves from (carries the incoming direction).
  RouteState from;
  /// Probe direction of this edge.
  geom::Dir move;
  /// Landing point.
  geom::Point to;
};

/// Interface: price the penalty of a probe edge (>= 0, in scaled cost units).
///
/// The gridless search prunes successors exactly (gridless_router.hpp), and
/// that is only sound for models that keep this contract:
///   (a) Subadditive along a straight line.  For a probe from state `a`
///       moving `d` past `b` to `c` (b strictly between a.p and c, or at c):
///         penalty({a, d, c}) <= penalty({a, d, b})
///                               + penalty({{b, d}, d, c})
///       — one long edge never costs more than the same edge split at `b`
///       and continued straight on.  This is why a probed state need not
///       re-probe the ray it arrived on.
///   (b) The incoming direction `from.in_dir` matters only through whether
///       the move bends (changes axis): two arrivals at the same point that
///       both bend, or both go straight, pay the same; and a start
///       (`kNoDir`) never pays more than any arrival.  This is why a closed
///       opposite-direction twin, or a start, at the same point covers a
///       state's successors.
/// Every model below keeps it (gridless_space_fuzz_test checks (a) and (b)
/// on random layouts and edges), and so does any sum of them.
class CostModel {
 public:
  virtual ~CostModel() = default;
  [[nodiscard]] virtual geom::Cost penalty(const EdgeContext& ctx) const = 0;
};

/// Pure wirelength: no penalty.  The paper's base cost ("we will assume cost
/// to be the length of the path").
class WirelengthCost final : public CostModel {
 public:
  [[nodiscard]] geom::Cost penalty(const EdgeContext&) const override {
    return 0;
  }
};

/// Epsilon per bend.  Among equal-length routes the one with fewest corners
/// wins; with epsilon < kCostScale a bend penalty can never override a real
/// length difference.
class BendCost final : public CostModel {
 public:
  explicit BendCost(geom::Cost epsilon = 1) : epsilon_(epsilon) {}
  [[nodiscard]] geom::Cost penalty(const EdgeContext& ctx) const override;

 private:
  geom::Cost epsilon_;
};

/// The paper's inverted-corner rule (Figure 2): among equal-length routes,
/// penalize bends that happen *away from* any cell boundary.  The preferred
/// route turns exactly at cell corners (hugging); the non-preferred route
/// carries a floating jog that leaves an inverted corner in the wiring.
/// Adding epsilon to each floating bend makes the router deterministically
/// pick the preferred route.
class InvertedCornerCost final : public CostModel {
 public:
  explicit InvertedCornerCost(geom::Cost epsilon = 1) : epsilon_(epsilon) {}
  [[nodiscard]] geom::Cost penalty(const EdgeContext& ctx) const override;

 private:
  geom::Cost epsilon_;
};

/// Sum of component penalties.
class CompositeCost final : public CostModel {
 public:
  void add(std::shared_ptr<const CostModel> m) { parts_.push_back(std::move(m)); }
  [[nodiscard]] geom::Cost penalty(const EdgeContext& ctx) const override {
    geom::Cost sum = 0;
    for (const auto& m : parts_) sum += m->penalty(ctx);
    return sum;
  }
  [[nodiscard]] bool empty() const noexcept { return parts_.empty(); }

 private:
  std::vector<std::shared_ptr<const CostModel>> parts_;
};

/// Penalty for probing through user-marked congested regions — the paper's
/// "channel congestion" second-pass cost: "A second route of the affected
/// nets could penalize those paths which chose the congested area."  Each
/// region charges `weight` (scaled cost) when a probe edge intersects it.
class RegionPenaltyCost final : public CostModel {
 public:
  struct Region {
    geom::Rect area;
    geom::Cost weight;
  };

  void add_region(geom::Rect area, geom::Cost weight) {
    regions_.push_back({area, weight});
  }
  [[nodiscard]] const std::vector<Region>& regions() const noexcept {
    return regions_;
  }
  [[nodiscard]] geom::Cost penalty(const EdgeContext& ctx) const override;

 private:
  std::vector<Region> regions_;
};

/// PathFinder-style negotiated-congestion penalty (McMurchie & Ebeling,
/// FPGA'95) over region-shaped resources — the iterated generalization of
/// RegionPenaltyCost.  Each region carries a *present* cost (how over-used
/// the resource is right now) and a *history* cost (how persistently it has
/// been over-used across rip-up iterations).  A probe edge crossing the
/// region pays
///
///     present * (1 + history) + history_base * history
///
/// so a currently-congested region grows more expensive every iteration it
/// stays congested (the present term is multiplied up by history), and a
/// region with a congested *past* keeps a residual charge even after it
/// drains (the additive history term) — which is what breaks the
/// oscillation a memoryless penalty falls into when two nets keep swapping
/// between the same two corridors.  Every term is >= 0, so the Manhattan
/// heuristic stays a lower bound and A* stays admissible.
class HistoryCost final : public CostModel {
 public:
  struct Region {
    geom::Rect area;
    geom::Cost present = 0;  ///< scaled cost per crossing, current overuse
    geom::Cost history = 0;  ///< accumulated overuse (dimensionless count)
  };

  /// \p history_base is the scaled cost one unit of history charges on a
  /// region that is not presently congested.
  explicit HistoryCost(geom::Cost history_base = 0)
      : history_base_(history_base) {}

  /// Negative inputs are clamped to zero: penalties must never subtract.
  void add_region(geom::Rect area, geom::Cost present, geom::Cost history) {
    regions_.push_back({area, present < 0 ? 0 : present,
                        history < 0 ? 0 : history});
  }
  [[nodiscard]] const std::vector<Region>& regions() const noexcept {
    return regions_;
  }
  [[nodiscard]] geom::Cost penalty(const EdgeContext& ctx) const override;

 private:
  geom::Cost history_base_;
  std::vector<Region> regions_;
};

}  // namespace gcr::route
