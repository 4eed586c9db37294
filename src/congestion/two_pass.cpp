#include "congestion/two_pass.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

namespace gcr::congestion {

CongestionMap build_map(const layout::Layout& lay,
                        const route::NetlistResult& result,
                        const PassageOptions& opts) {
  CongestionMap map(extract_passages(lay, opts));
  for (std::size_t i = 0; i < result.routes.size(); ++i) {
    if (result.routes[i].ok) map.add_net(i, result.routes[i]);
  }
  return map;
}

TwoPassReport TwoPassRouter::run(const TwoPassOptions& opts) const {
  using Clock = std::chrono::steady_clock;
  TwoPassReport report;

  // Stop improving (keeping whatever routes exist) when the requester is
  // gone or out of time; checked between per-net reroutes like the
  // optimizer's pass boundaries.
  const auto stop_requested = [&] {
    if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) {
      report.cancelled = true;
      return true;
    }
    if (opts.deadline != Clock::time_point{} &&
        Clock::now() >= opts.deadline) {
      // A deadline stop truncates the run exactly like a cancel: the report
      // is incomplete and must never be mistaken for (or cached as) the
      // canonical result of these options.
      report.cancelled = true;
      return true;
    }
    return false;
  };

  // The placement is fixed, so one environment serves pass 1 and every
  // iteration: the injected one, or one built here.
  std::optional<route::SearchEnvironment> own_env;
  if (env_ == nullptr) own_env.emplace(layout_);
  const route::SearchEnvironment& env = env_ != nullptr ? *env_ : *own_env;

  // Pass 1: independent wirelength routing — unless the caller already has
  // routes (the serving layer's committed state), which become pass 1.
  if (opts.first_pass != nullptr) {
    report.first_pass = *opts.first_pass;
  } else {
    const route::NetlistRouter base_router(layout_, env);
    route::NetlistOptions nl_opts;
    nl_opts.steiner = opts.steiner;
    report.first_pass = base_router.route_all(nl_opts);
  }

  route::NetlistResult current = report.first_pass;
  {
    const CongestionMap map = build_map(layout_, current, opts.passages);
    report.overflow_before = map.total_overflow();
    report.max_occupancy_before = map.max_occupancy();
  }

  bool stopped = false;
  for (std::size_t iter = 0; iter < opts.max_iterations && !stopped; ++iter) {
    if (stop_requested()) break;
    const CongestionMap map = build_map(layout_, current, opts.passages);
    const std::vector<std::size_t> hot = map.congested();
    if (hot.empty()) break;

    // Affected nets: every net crossing a congested passage.
    std::unordered_set<std::size_t> affected;
    route::RegionPenaltyCost penalty;
    for (const std::size_t p : hot) {
      const PassageLoad& load = map.loads()[p];
      penalty.add_region(load.passage.region,
                         opts.penalty_dbu * route::kCostScale *
                             static_cast<geom::Cost>(load.overflow()));
      for (const std::size_t n : map.nets_through(p)) affected.insert(n);
    }
    if (affected.empty()) break;

    // Re-route only the offenders with the penalized cost function.
    const route::SteinerNetRouter rerouter(env.index(), env.lines(),
                                           &penalty);
    bool changed = false;
    for (const std::size_t n : affected) {
      if (stop_requested()) {
        stopped = true;
        break;
      }
      route::NetRoute nr =
          rerouter.route_net(layout_, layout_.nets()[n], opts.steiner);
      if (!nr.ok) continue;  // keep the pass-1 route on failure
      if (nr.segments != current.routes[n].segments) changed = true;
      current.total_wirelength +=
          nr.wirelength - current.routes[n].wirelength;
      current.routes[n] = std::move(nr);
      ++report.nets_rerouted;
    }
    ++report.passes_run;
    if (!changed) break;
  }

  {
    const CongestionMap map = build_map(layout_, current, opts.passages);
    report.overflow_after = map.total_overflow();
    report.max_occupancy_after = map.max_occupancy();
  }
  report.final_pass = std::move(current);
  return report;
}

}  // namespace gcr::congestion
