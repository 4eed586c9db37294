#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>

#include "congestion/congestion_map.hpp"
#include "core/netlist_router.hpp"

/// \file two_pass.hpp
/// The paper's congestion-driven second pass: "A second route of the
/// affected nets could penalize those paths which chose the congested area."
///
/// Pass 1 routes every net independently on pure wirelength.  The congestion
/// map then identifies over-capacity passages; only the nets crossing them
/// are re-routed with a RegionPenaltyCost charging each congested passage,
/// steering them into under-used corridors when an alternative of comparable
/// length exists.

namespace gcr::congestion {

struct TwoPassOptions {
  PassageOptions passages;
  route::SteinerOptions steiner;
  /// Scaled-cost penalty per congested passage crossed (per probe edge).
  /// Charged in units of route::kCostScale; the default makes one congested
  /// crossing as expensive as `penalty_dbu` DBU of extra wire.
  geom::Cost penalty_dbu = 32;
  /// Re-route iterations (each rebuilds the map and re-routes offenders).
  std::size_t max_iterations = 3;
  /// Starts from these routes instead of running pass 1 (the serving
  /// layer's committed routes).  Must index the same netlist as the layout;
  /// must outlive the run() call.  nullptr = route pass 1 internally.
  const route::NetlistResult* first_pass = nullptr;
  /// Absolute deadline; default = none.  Checked between per-net reroutes —
  /// an expired run keeps whatever routes it has and stops improving them.
  std::chrono::steady_clock::time_point deadline{};
  /// Cooperative cancel (client disconnect), checked with the deadline.
  std::shared_ptr<std::atomic<bool>> cancel;
};

struct TwoPassReport {
  route::NetlistResult first_pass;
  route::NetlistResult final_pass;
  std::size_t passes_run = 1;
  std::size_t nets_rerouted = 0;
  /// Congestion metrics before and after.
  std::size_t overflow_before = 0;
  std::size_t overflow_after = 0;
  std::size_t max_occupancy_before = 0;
  std::size_t max_occupancy_after = 0;
  /// True when the cancel token or the deadline stopped the reroute loop
  /// early: the report is truncated and must not be treated (or cached) as
  /// the canonical result of its options.
  bool cancelled = false;
};

class TwoPassRouter {
 public:
  /// Each run builds one SearchEnvironment for pass 1 and every iteration.
  explicit TwoPassRouter(const layout::Layout& lay) : layout_(lay) {}

  /// Injects a prebuilt environment (the serving layer's session cache):
  /// pass 1 and the penalized reroutes reuse \p env instead of building
  /// one.  \p env must match \p lay's placement, hold no committed halos,
  /// and outlive the router.
  TwoPassRouter(const layout::Layout& lay, const route::SearchEnvironment& env)
      : layout_(lay), env_(&env) {}

  [[nodiscard]] TwoPassReport run(const TwoPassOptions& opts = {}) const;

 private:
  const layout::Layout& layout_;
  const route::SearchEnvironment* env_ = nullptr;
};

/// Builds a congestion map for an already-routed netlist.
[[nodiscard]] CongestionMap build_map(const layout::Layout& lay,
                                      const route::NetlistResult& result,
                                      const PassageOptions& opts);

}  // namespace gcr::congestion
