#include "core/optimize.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "congestion/two_pass.hpp"
#include "core/cost_model.hpp"
#include "core/route_types.hpp"
#include "core/search_environment.hpp"
#include "core/steiner.hpp"

namespace gcr::route {

namespace {

using congestion::CongestionMap;
using congestion::Passage;
using Clock = std::chrono::steady_clock;

/// How many of the \p hot passage regions the net's tree touches.  The
/// per-net acceptance test compares this against the *pass-start* hot set
/// for both the old and the new route, so the comparison is apples to
/// apples even though the map shifts as the pass commits changes.
std::size_t hot_crossings(const std::vector<geom::Rect>& hot,
                          const NetRoute& nr) {
  std::size_t count = 0;
  for (const geom::Rect& r : hot) {
    for (const geom::Segment& s : nr.segments) {
      if (s.bounds().intersects(r)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

}  // namespace

double detour_ratio(const layout::Layout& lay, const layout::Net& net,
                    const NetRoute& nr) {
  if (!nr.ok) return 1.0;
  const std::optional<geom::Rect> bbox = terminal_bbox(lay, net);
  const geom::Cost lb = bbox ? bbox->half_perimeter() : 0;
  // Coincident-terminal (or pinless) nets have a zero lower bound; dividing
  // would be UB and any positive wirelength would score as infinite detour.
  // Such nets are defined to have no detour — there is nothing to optimize.
  if (lb <= 0) return 1.0;
  return static_cast<double>(nr.wirelength) / static_cast<double>(lb);
}

OptimizeReport Optimizer::run(const OptimizeOptions& opts) const {
  const auto start = Clock::now();
  // The effective stop time: the earlier of the absolute deadline and the
  // relative budget.  Checked only at pass boundaries — a pass in flight
  // runs to completion (the router has no preemption points).
  Clock::time_point stop_at = opts.deadline;
  if (opts.budget.count() > 0) {
    const Clock::time_point budget_end = start + opts.budget;
    if (stop_at == Clock::time_point{} || budget_end < stop_at) {
      stop_at = budget_end;
    }
  }

  OptimizeReport report;
  NetlistResult& result = report.result;
  const std::size_t n = layout_.nets().size();

  assert((env_ == nullptr || env_->committed() == 0) &&
         "injected environment must not carry committed wire halos");
  SearchEnvironment env =
      env_ != nullptr ? *env_ : SearchEnvironment(layout_);

  // ---------------------------------------- pass 1: full sequential route
  NetlistOptions first;
  first.steiner = opts.steiner;
  first.wire_halo = opts.wire_halo;
  result = route_sequential(env, layout_, first);

  // Passage geometry depends only on the placement, so it is extracted
  // once; occupancy is re-counted per pass.
  const std::vector<Passage> passages =
      congestion::extract_passages(layout_, opts.passages);
  std::vector<geom::Cost> history(passages.size(), 0);

  const auto measure = [&](std::size_t pass) {
    OptimizePassStats s;
    s.pass = pass;
    CongestionMap map(passages);
    for (std::size_t i = 0; i < n; ++i) {
      if (!result.routes[i].ok) {
        ++s.failed;
        continue;
      }
      map.add_net(i, result.routes[i]);
      ++s.routed;
      s.wirelength += result.routes[i].wirelength;
    }
    s.overflow = map.total_overflow();
    return s;
  };

  report.passes.push_back(measure(1));
  if (opts.progress) opts.progress(report.passes.back());

  // ------------------------------------------- iterated rip-up-and-reroute
  for (std::size_t pass = 2; pass <= opts.max_passes + 1; ++pass) {
    if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) {
      report.cancelled = true;
      break;
    }
    if (stop_at != Clock::time_point{} && Clock::now() >= stop_at) break;

    const OptimizePassStats prev = report.passes.back();

    CongestionMap map(passages);
    for (std::size_t i = 0; i < n; ++i) {
      if (result.routes[i].ok) map.add_net(i, result.routes[i]);
    }
    const std::vector<std::size_t> hot = map.congested();
    std::vector<geom::Rect> hot_rects;
    hot_rects.reserve(hot.size());
    std::vector<char> through_hot(n, 0);
    for (const std::size_t p : hot) {
      hot_rects.push_back(map.loads()[p].passage.region);
      // Negotiation memory: every pass a passage stays over capacity, its
      // history grows, and with it the penalty the cost model charges.
      history[p] += static_cast<geom::Cost>(map.loads()[p].overflow());
      for (const std::size_t i : map.nets_through(p)) through_hot[i] = 1;
    }

    // Score the committed nets: congestion contribution (crossings of
    // over-capacity passages) plus detour (how far over the Manhattan
    // lower bound the route strayed).  Congestion-free nets below the
    // detour threshold are left alone.
    struct Candidate {
      double score;
      std::size_t idx;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < n; ++i) {
      if (!result.routes[i].ok) continue;
      const double ratio =
          detour_ratio(layout_, layout_.nets()[i], result.routes[i]);
      if (through_hot[i] == 0 && ratio <= opts.detour_threshold) continue;
      const std::size_t cross =
          through_hot[i] != 0 ? hot_crossings(hot_rects, result.routes[i])
                              : 0;
      candidates.push_back(
          {ratio - 1.0 + static_cast<double>(cross), i});
    }
    if (candidates.empty()) {
      report.converged = true;
      break;
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.score != b.score ? a.score > b.score
                                          : a.idx < b.idx;
              });
    const std::size_t cap = std::max<std::size_t>(
        1, std::min(opts.max_rip,
                    static_cast<std::size_t>(opts.rip_fraction *
                                             static_cast<double>(prev.routed))));
    if (candidates.size() > cap) candidates.resize(cap);

    // The negotiated-congestion cost for this pass: present overuse
    // multiplied up by accumulated history, plus a residual history charge
    // on passages that drained but used to overflow (oscillation damping).
    HistoryCost cost(opts.history_penalty_dbu * kCostScale);
    for (std::size_t p = 0; p < passages.size(); ++p) {
      const geom::Cost present =
          static_cast<geom::Cost>(map.loads()[p].overflow());
      if (present == 0 && history[p] == 0) continue;
      cost.add_region(passages[p].region,
                      opts.present_penalty_dbu * kCostScale * present,
                      history[p]);
    }

    // Rip every victim first (each removal is O(affected geometry)), then
    // re-route them in score order against the committed remainder.
    std::vector<std::size_t> victims;
    victims.reserve(candidates.size());
    std::vector<char> is_victim(n, 0);
    for (const Candidate& c : candidates) {
      victims.push_back(c.idx);
      is_victim[c.idx] = 1;
    }
    // Co-rip each victim's *blockers*: a detoured net re-routed alone faces
    // strictly more committed wire than it did in pass 1 (everything routed
    // after it is now in the way), so on its own it can never get shorter.
    // Any other routed net whose tree cuts through a victim's terminal box
    // — the region a detour-free route would use — is ripped alongside it
    // and re-routed *after* the victims, so the shortened net grabs the
    // corridor first and the blocker settles around it (its old route is
    // restored if it cannot do at least as well).
    for (const Candidate& c : candidates) {
      if (victims.size() >= opts.max_rip) break;
      const auto bbox = terminal_bbox(layout_, layout_.nets()[c.idx]);
      if (!bbox) continue;
      for (std::size_t i = 0; i < n && victims.size() < opts.max_rip; ++i) {
        if (is_victim[i] != 0 || !result.routes[i].ok) continue;
        for (const geom::Segment& seg : result.routes[i].segments) {
          if (seg.bounds().intersects(*bbox)) {
            victims.push_back(i);
            is_victim[i] = 1;
            break;
          }
        }
      }
    }
    for (const std::size_t v : victims) env.remove_route(v);

    struct Undo {
      std::size_t idx;
      NetRoute old;
    };
    std::vector<Undo> changed;
    std::size_t improved = 0;
    for (const std::size_t v : victims) {
      NetRoute old = std::move(result.routes[v]);
      const std::size_t old_cross = hot_crossings(hot_rects, old);
      NetRoute nr = SteinerNetRouter(env.index(), env.lines(), &cost)
                        .route_net(layout_, layout_.nets()[v], opts.steiner);
      result.stats += nr.stats;
      // Per-net acceptance: the new route must regress neither dimension
      // (no longer, no more crossings of this pass's congested passages)
      // and strictly improve at least one — otherwise the old route is
      // restored verbatim.  Strictness keeps `improved` an honest progress
      // measure (lateral churn would iterate to the pass cap for nothing),
      // and the no-regress half is what makes the per-pass totals monotone
      // (the pass-level guard below catches the residual case of
      // independently-accepted nets piling into the same fresh passage).
      const std::size_t new_cross =
          nr.ok ? hot_crossings(hot_rects, nr) : 0;
      const bool accept =
          nr.ok && nr.wirelength <= old.wirelength &&
          new_cross <= old_cross &&
          (nr.wirelength < old.wirelength || new_cross < old_cross);
      if (accept) {
        env.commit_route(v, nr.segments, opts.wire_halo);
        result.routes[v] = std::move(nr);
        changed.push_back({v, std::move(old)});
        ++improved;
      } else {
        env.commit_route(v, old.segments, opts.wire_halo);
        result.routes[v] = std::move(old);
      }
    }

    OptimizePassStats s = measure(pass);
    s.ripped = victims.size();
    s.improved = improved;
    if (s.wirelength > prev.wirelength || s.overflow > prev.overflow) {
      // The pass made things worse in aggregate: roll every accepted
      // change back (remove the new halos, recommit the old ones) and
      // stop.  The reverted pass is not recorded, so the recorded curve
      // stays non-increasing.
      for (Undo& u : changed) {
        env.remove_route(u.idx);
        env.commit_route(u.idx, u.old.segments, opts.wire_halo);
        result.routes[u.idx] = std::move(u.old);
      }
      report.converged = true;
      break;
    }
    report.passes.push_back(s);
    if (opts.progress) opts.progress(s);
    if (improved == 0) {
      report.converged = true;
      break;
    }
  }

  // Final accounting over the surviving routes.
  result.routed = 0;
  result.failed = 0;
  result.total_wirelength = 0;
  for (const NetRoute& nr : result.routes) {
    if (nr.ok) {
      ++result.routed;
      result.total_wirelength += nr.wirelength;
    } else {
      ++result.failed;
    }
  }
  return report;
}

}  // namespace gcr::route
