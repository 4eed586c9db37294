#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/search_environment.hpp"
#include "core/steiner.hpp"
#include "layout/layout.hpp"

/// \file netlist_router.hpp
/// Whole-netlist global routing.
///
/// The paper routes every net *independently*: "Independently routing each
/// net considerably reduces the complexity of the search since the only
/// obstacles are the cells. ... Independent net routing also eliminates the
/// problem of net ordering."  The classical alternative — nets routed one
/// after another with earlier nets added to the obstacle set — is kept as a
/// selectable mode so the benchmark can reproduce the claimed contrast
/// (search time blow-up and order sensitivity).

namespace gcr::route {

enum class NetlistMode {
  /// The paper's scheme: every net sees only the cells.
  kIndependent,
  /// Classical scheme: previously routed nets become obstacles (inflated to
  /// one wire-spacing halo), so later nets must maze around them and net
  /// ordering matters.
  kSequential,
};

struct NetlistOptions {
  NetlistMode mode = NetlistMode::kIndependent;
  SteinerOptions steiner;
  /// Halo, in DBU, applied to routed segments when they become obstacles in
  /// sequential mode (the minimum wire spacing).
  geom::Coord wire_halo = 1;
  /// Optional routing order (net indices); empty = netlist order.  Only
  /// meaningful in sequential mode — the paper's point is that independent
  /// routing makes this knob irrelevant.
  std::vector<std::size_t> order;
  /// Optional net subset: when non-empty, only the listed nets are routed
  /// (in list order for sequential mode); every other slot of
  /// `NetlistResult::routes` stays default-constructed and the
  /// routed/failed/wirelength totals cover the subset alone.  This is the
  /// serving layer's request-batching hook — a client re-routes the two
  /// nets it changed instead of the whole netlist.  Entries must be unique,
  /// in-range net indices, and `order` must be empty (the subset *is* the
  /// order); violations throw std::invalid_argument.
  std::vector<std::size_t> subset;
  /// Rip-up-and-reroute (sequential mode only): after the full sequential
  /// pass, the listed nets are ripped back out of the search environment
  /// (incremental halo removal, no rebuild) and re-routed in list order
  /// against the committed remainder — the classical remedy for
  /// order-sensitivity, priced at O(affected geometry) per ripped net.
  /// The final result — routes, totals, stats — is bit-identical to
  /// performing the same rip-up with from-scratch environment rebuilds
  /// (the incremental removal is exact), and accounting replays the final
  /// order (remaining nets in first-pass order, then the list); when the
  /// first pass already routed the listed nets last, the result is
  /// therefore bit-identical to the plain sequential route of that order.
  /// Entries must be unique in-range net indices; requires sequential mode
  /// and no `subset` (violations throw std::invalid_argument).  May
  /// combine with `order`, which fixes the first-pass order.
  std::vector<std::size_t> reroute;
  /// Worker threads for the independent-mode batch driver.  1 = the
  /// deterministic serial loop; 0 = one worker per hardware thread; N > 1 =
  /// exactly N workers.  Because independent nets share a read-only search
  /// environment, the result is bit-identical for every thread count.
  /// Ignored in sequential mode, which is inherently ordered.
  unsigned threads = 1;
  /// Absolute deadline; default = none.  Checked between nets (every mode):
  /// expiry stops the pass early and marks the result `cancelled`.  It
  /// never alters a run that finishes in time, so the bit-identical
  /// guarantees below hold for every completed result.
  std::chrono::steady_clock::time_point deadline{};
  /// Cooperative cancel token (client disconnect), checked between nets
  /// like `deadline`.  May be null.
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Batch-driver scheduling: dispatch work items longest-first (estimated
  /// effort = net bounding-box half-perimeter, descending) so a long net
  /// pulled last cannot straggle alone at the tail of the batch.  Dispatch
  /// order never affects results — independent nets share a read-only
  /// environment and each writes its own slot — so this is purely a
  /// tail-latency knob; `false` restores arrival-order dispatch (the
  /// baseline `bench_independent_nets` compares against).  Ignored when the
  /// batch runs serially.
  bool sorted_dispatch = true;
};

struct NetlistResult {
  std::vector<NetRoute> routes;  ///< indexed by net id
  std::size_t routed = 0;
  std::size_t failed = 0;
  geom::Cost total_wirelength = 0;
  search::SearchStats stats;
  /// True when the cancel token or deadline stopped the pass early.  The
  /// result is then *partial* — unreached `routes` slots stay default and
  /// the totals are unaccounted — and must be discarded, never committed
  /// or cached.
  bool cancelled = false;
};

/// Resolves the "0 = one worker per hardware thread" convention shared by
/// the batch driver and the serving worker pool; never returns 0 (a machine
/// whose concurrency is unknown gets one worker).
[[nodiscard]] std::size_t resolve_worker_count(std::size_t requested);

class NetlistRouter {
 public:
  /// \p cost may be nullptr.  The layout must outlive the router.
  /// Independent mode builds a fresh SearchEnvironment per route_all call.
  explicit NetlistRouter(const layout::Layout& lay,
                         const CostModel* cost = nullptr)
      : layout_(lay), cost_(cost) {}

  /// Injects a prebuilt environment (the serving layer's session cache):
  /// independent-mode calls reuse \p env instead of rebuilding the obstacle
  /// index and escape lines, and sequential-mode calls start from a *copy*
  /// of it (plain vector duplication, no build) and absorb each routed
  /// net's wire halos via incremental `commit_route` updates.  \p env must
  /// have been built from \p lay's current placement, hold no committed
  /// halos, and outlive the router.
  NetlistRouter(const layout::Layout& lay, const SearchEnvironment& env,
                const CostModel* cost = nullptr)
      : layout_(lay), cost_(cost), env_(&env) {}

  [[nodiscard]] NetlistResult route_all(const NetlistOptions& opts = {}) const;

 private:
  [[nodiscard]] NetlistResult route_independent(const NetlistOptions&) const;

  const layout::Layout& layout_;
  const CostModel* cost_;
  const SearchEnvironment* env_ = nullptr;  ///< optional injected environment
};

/// The classical sequential pass, routing into a caller-owned environment:
/// the nets of `opts.subset` (else `opts.order`, else netlist order) route
/// one after another, and each routed net is committed into \p env under
/// its net id, inflated by `opts.wire_halo`, so later nets route around it.
/// `opts.reroute` then rips its nets out and re-routes them in list order.
/// Every commit stays in \p env.  \p env must match \p lay's placement; it
/// may already hold halos of other nets (a pinned serving session), but
/// none under an id this pass commits.  `mode` and `threads` are ignored;
/// `cancel` and `deadline` stop the pass between nets.  NetlistRouter's
/// sequential mode, Optimizer pass 1 and pinned-session COMMIT/REROUTE all
/// run this one pass.
[[nodiscard]] NetlistResult route_sequential(SearchEnvironment& env,
                                             const layout::Layout& lay,
                                             const NetlistOptions& opts,
                                             const CostModel* cost = nullptr);

}  // namespace gcr::route
