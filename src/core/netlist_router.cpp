#include "core/netlist_router.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace gcr::route {

using geom::Rect;

namespace {

/// Validates NetlistOptions::reroute: unique in-range indices, exclusive
/// with subset.  Returns the list (empty = no rip-up).
std::vector<std::size_t> resolve_reroute(const NetlistOptions& opts,
                                         std::size_t n) {
  if (opts.reroute.empty()) return {};
  if (!opts.subset.empty()) {
    throw std::invalid_argument(
        "NetlistOptions: reroute and subset are mutually exclusive (rip-up "
        "re-routes against the full committed remainder)");
  }
  std::vector<bool> seen(n, false);
  for (const std::size_t i : opts.reroute) {
    if (i >= n || seen[i]) {
      throw std::invalid_argument(
          "NetlistOptions::reroute entries must be unique net indices");
    }
    seen[i] = true;
  }
  return opts.reroute;
}

std::vector<std::size_t> resolve_order(const NetlistOptions& opts,
                                       std::size_t n) {
  if (!opts.subset.empty()) {
    // A subset request routes exactly the listed nets; accounting and (in
    // sequential mode) routing follow list order, so the list doubles as
    // the order and combining it with `order` would be ambiguous.
    if (!opts.order.empty()) {
      throw std::invalid_argument(
          "NetlistOptions: subset and order are mutually exclusive");
    }
    std::vector<bool> seen(n, false);
    for (const std::size_t i : opts.subset) {
      if (i >= n || seen[i]) {
        throw std::invalid_argument(
            "NetlistOptions::subset entries must be unique net indices");
      }
      seen[i] = true;
    }
    return opts.subset;
  }
  if (!opts.order.empty()) {
    // A non-permutation order would double-route some nets and skip others
    // — and with the parallel batch driver, a duplicate index would let two
    // workers write the same result slot (a data race).  Fail loudly in
    // every build type rather than relying on a debug-only assert.
    bool valid = opts.order.size() == n;
    if (valid) {
      std::vector<bool> seen(n, false);
      for (const std::size_t i : opts.order) {
        if (i >= n || seen[i]) {
          valid = false;
          break;
        }
        seen[i] = true;
      }
    }
    if (!valid) {
      throw std::invalid_argument(
          "NetlistOptions::order must be a permutation of every net index");
    }
    return opts.order;
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

std::size_t resolve_workers(unsigned requested, std::size_t jobs) {
  return std::min(resolve_worker_count(requested),
                  std::max<std::size_t>(jobs, 1));
}

/// Longest-first dispatch schedule for the batch driver.  A net's estimated
/// effort is the half-perimeter of its terminal bounding box: search work
/// grows with the spanned area.  A stable sort on descending effort keeps
/// ties in `order` order, so the schedule is deterministic; results are
/// unaffected either way because accounting always replays the caller's
/// `order`.
std::vector<std::size_t> effort_sorted(const layout::Layout& lay,
                                       const std::vector<std::size_t>& order) {
  std::vector<std::pair<geom::Cost, std::size_t>> keyed;
  keyed.reserve(order.size());
  for (const std::size_t i : order) {
    const std::optional<Rect> bbox = terminal_bbox(lay, lay.nets()[i]);
    keyed.emplace_back(bbox ? bbox->half_perimeter() : 0, i);
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::size_t> dispatch;
  dispatch.reserve(keyed.size());
  for (const auto& [effort, i] : keyed) dispatch.push_back(i);
  return dispatch;
}

/// Between-net stop check shared by every mode: cancel token first (the
/// cheap load), then the deadline.  Net routing dwarfs a Clock::now() call,
/// so checking per net costs nothing measurable.
bool stop_requested(const NetlistOptions& opts) {
  if (opts.cancel && opts.cancel->load(std::memory_order_relaxed)) {
    return true;
  }
  return opts.deadline != std::chrono::steady_clock::time_point{} &&
         std::chrono::steady_clock::now() >= opts.deadline;
}

void account(NetlistResult& result, std::size_t net_idx, NetRoute nr) {
  result.stats += nr.stats;
  if (nr.ok) {
    ++result.routed;
    result.total_wirelength += nr.wirelength;
  } else {
    ++result.failed;
  }
  result.routes[net_idx] = std::move(nr);
}

}  // namespace

std::size_t resolve_worker_count(std::size_t requested) {
  std::size_t n =
      requested == 0 ? std::thread::hardware_concurrency() : requested;
  if (n == 0) n = 1;  // hardware_concurrency() may be unknown
  return n;
}

NetlistResult NetlistRouter::route_all(const NetlistOptions& opts) const {
  if (opts.mode == NetlistMode::kIndependent) return route_independent(opts);
  // Previously routed nets join the obstacle set.  A cached session
  // environment can serve sequential requests too: copying the shared
  // read-only environment is vector duplication, not a build.
  assert((env_ == nullptr || env_->committed() == 0) &&
         "injected environment must not carry committed wire halos");
  SearchEnvironment env =
      env_ != nullptr ? *env_ : SearchEnvironment(layout_);
  return route_sequential(env, layout_, opts, cost_);
}

NetlistResult NetlistRouter::route_independent(
    const NetlistOptions& opts) const {
  if (!opts.reroute.empty()) {
    throw std::invalid_argument(
        "NetlistOptions: reroute requires sequential mode (independent "
        "routing has no net ordering to repair)");
  }
  NetlistResult result;
  result.routes.resize(layout_.nets().size());

  // One obstacle index and one escape-line set serve every net: the whole
  // point of independent routing is that the search environment is fixed.
  // That same immutability is what makes the batch driver below safe — the
  // index, escape lines, router, and cost model are read-only once built.
  // An injected environment (the serving layer's session cache) skips the
  // per-call build entirely.
  std::optional<SearchEnvironment> local_env;
  if (env_ == nullptr) local_env.emplace(layout_);
  const SearchEnvironment& env = env_ != nullptr ? *env_ : *local_env;
  const SteinerNetRouter net_router(env.index(), env.lines(), cost_);

  const std::vector<std::size_t> order =
      resolve_order(opts, layout_.nets().size());
  const std::size_t workers = resolve_workers(opts.threads, order.size());

  if (workers <= 1) {
    // Deterministic serial fallback (and the semantics the parallel path
    // must reproduce exactly).
    for (const std::size_t i : order) {
      if (stop_requested(opts)) {
        result.cancelled = true;
        return result;
      }
      account(result, i,
              net_router.route_net(layout_, layout_.nets()[i], opts.steiner));
    }
    return result;
  }

  // Batch driver: workers pull net indices from a shared cursor and write
  // each finished route into its own (disjoint) slot, so no locking is
  // needed on the hot path.  Accounting then runs serially in `order`
  // order, making totals and stats bit-identical to the serial fallback.
  // Dispatch longest-first by default: with arrival-order dispatch a long
  // net pulled last runs alone while every other worker idles.
  const std::vector<std::size_t> dispatch =
      opts.sorted_dispatch ? effort_sorted(layout_, order) : order;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> stopped{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto work = [&]() noexcept {
    try {
      for (std::size_t k = cursor.fetch_add(1, std::memory_order_relaxed);
           k < dispatch.size();
           k = cursor.fetch_add(1, std::memory_order_relaxed)) {
        if (stop_requested(opts)) {
          stopped.store(true, std::memory_order_relaxed);
          cursor.store(dispatch.size(), std::memory_order_relaxed);  // drain
          return;
        }
        const std::size_t i = dispatch[k];
        result.routes[i] =
            net_router.route_net(layout_, layout_.nets()[i], opts.steiner);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
      cursor.store(dispatch.size(), std::memory_order_relaxed);  // drain queue
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  try {
    for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(work);
  } catch (...) {
    // Thread exhaustion: drain the queue so already-running workers stop,
    // join them (destroying a joinable thread would terminate), and let
    // whatever workers did start plus this thread finish the batch.
    cursor.store(dispatch.size(), std::memory_order_relaxed);
    for (std::thread& th : pool) th.join();
    pool.clear();
    cursor.store(0, std::memory_order_relaxed);
  }
  work();
  for (std::thread& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
  if (stopped.load(std::memory_order_relaxed)) {
    // Partial batch: unreached slots are default-constructed, so replaying
    // the accounting would miscount them as failures.  The caller discards
    // a cancelled result anyway.
    result.cancelled = true;
    return result;
  }

  for (const std::size_t i : order) {
    account(result, i, std::move(result.routes[i]));
  }
  return result;
}

NetlistResult route_sequential(SearchEnvironment& env,
                               const layout::Layout& lay,
                               const NetlistOptions& opts,
                               const CostModel* cost) {
  NetlistResult result;
  const std::size_t n = lay.nets().size();
  result.routes.resize(n);

  // The environment absorbs each routed net *incrementally* (commit_route:
  // bucket insert + localized escape-line regeneration), so this pass pays
  // O(local update) per net instead of the full O(index + escape-line
  // rebuild) the classical scheme implies.  A net whose pins earlier halos
  // swallowed fails inside route_terminals, before any search.
  const std::vector<std::size_t> order = resolve_order(opts, n);
  const std::vector<std::size_t> reroute = resolve_reroute(opts, n);

  const auto route_one = [&](std::size_t i) {
    const SteinerNetRouter net_router(env.index(), env.lines(), cost);
    NetRoute nr = net_router.route_net(lay, lay.nets()[i], opts.steiner);
    if (nr.ok) env.commit_route(i, nr.segments, opts.wire_halo);
    result.routes[i] = std::move(nr);
  };

  for (const std::size_t i : order) {
    if (stop_requested(opts)) {
      result.cancelled = true;
      return result;
    }
    route_one(i);
  }

  if (!reroute.empty()) {
    // Rip-up-and-reroute: tombstone every listed net's halos (each removal
    // is O(affected geometry); a net that failed to route committed
    // nothing and remove_route is a no-op), then re-route the list in
    // order against the committed remainder.  The environment after the
    // removals is exactly the one a from-scratch rebuild over the
    // remainder would build, so the re-routes are bit-identical to the
    // rebuild-based reference — the differential suite proves it.
    for (const std::size_t r : reroute) env.remove_route(r);
    for (const std::size_t r : reroute) {
      if (stop_requested(opts)) {
        result.cancelled = true;
        return result;
      }
      route_one(r);
    }
  }

  // Accounting replays the *final* order — remaining nets in first-pass
  // order, then the re-routed list — over each net's final route, so a
  // ripped net's discarded first route never pollutes totals or stats and
  // the result matches the rebuild-based rip-up reference bit for bit.
  // (That is the guarantee; full equality with a from-scratch route of
  // this order additionally requires the first pass to have routed the
  // ripped nets last — see NetlistOptions::reroute.)
  std::vector<bool> ripped(n, false);
  for (const std::size_t r : reroute) ripped[r] = true;
  for (const std::size_t i : order) {
    if (!ripped[i]) account(result, i, std::move(result.routes[i]));
  }
  for (const std::size_t r : reroute) {
    account(result, r, std::move(result.routes[r]));
  }
  return result;
}

}  // namespace gcr::route
