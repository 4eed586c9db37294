// Tests for whole-netlist routing: the paper's independent mode versus the
// classical sequential (nets-as-obstacles) mode, and order sensitivity.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>

#include "core/netlist_router.hpp"
#include "workload/floorplan.hpp"
#include "workload/netgen.hpp"

namespace {

using namespace gcr;
using geom::Point;
using geom::Rect;

layout::Layout small_routed_layout(std::uint64_t seed, std::size_t nets = 12) {
  workload::FloorplanOptions fp;
  fp.seed = seed;
  fp.cell_count = 9;
  fp.boundary = Rect{0, 0, 512, 512};
  layout::Layout lay = workload::random_floorplan(fp);
  workload::PinGenOptions pins;
  pins.seed = seed + 1;
  workload::sprinkle_pins(lay, pins);
  workload::NetGenOptions ng;
  ng.seed = seed + 2;
  ng.net_count = nets;
  ng.max_terminals = 3;
  workload::generate_nets(lay, ng);
  return lay;
}

TEST(NetlistRouter, IndependentModeRoutesEverything) {
  const layout::Layout lay = small_routed_layout(21);
  ASSERT_TRUE(lay.valid());
  const route::NetlistRouter router(lay);
  const auto result = router.route_all();
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.routed, lay.nets().size());
  EXPECT_GT(result.total_wirelength, 0);
  EXPECT_EQ(result.routes.size(), lay.nets().size());
}

TEST(NetlistRouter, IndependentModeIgnoresOrder) {
  // The paper: "Independent net routing also eliminates the problem of net
  // ordering."  Any order yields identical per-net routes.
  const layout::Layout lay = small_routed_layout(22);
  const route::NetlistRouter router(lay);

  route::NetlistOptions fwd;
  const auto a = router.route_all(fwd);

  route::NetlistOptions rev;
  rev.order.resize(lay.nets().size());
  std::iota(rev.order.begin(), rev.order.end(), 0);
  std::reverse(rev.order.begin(), rev.order.end());
  const auto b = router.route_all(rev);

  ASSERT_EQ(a.routes.size(), b.routes.size());
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i].segments, b.routes[i].segments) << "net " << i;
  }
}

TEST(NetlistRouter, SequentialModeDependsOnOrderOrCostsMore) {
  // Sequential routing makes earlier nets obstacles: total wirelength can
  // only get worse (or some nets fail), and effort rises.
  const layout::Layout lay = small_routed_layout(23);
  const route::NetlistRouter router(lay);

  const auto indep = router.route_all();
  ASSERT_EQ(indep.failed, 0u);

  route::NetlistOptions seq;
  seq.mode = route::NetlistMode::kSequential;
  const auto sequential = router.route_all(seq);

  // Whatever routed sequentially is at least as long per net.
  for (std::size_t i = 0; i < sequential.routes.size(); ++i) {
    if (!sequential.routes[i].ok || !indep.routes[i].ok) continue;
    EXPECT_GE(sequential.routes[i].wirelength, indep.routes[i].wirelength)
        << "net " << i;
  }
  EXPECT_LE(sequential.routed, indep.routed);
}

TEST(NetlistRouter, SequentialWiresBlockLaterNets) {
  // Deterministic construction: net 0's straight route lies exactly across
  // net 1's straight route; sequentially net 1 must detour (or fail), while
  // independent routing gives both their optimum.
  layout::Layout lay(Rect{0, 0, 100, 100});
  lay.set_min_separation(4);
  const auto west = lay.add_cell(layout::Cell{"w", Rect{5, 40, 20, 60}});
  const auto east = lay.add_cell(layout::Cell{"e", Rect{80, 40, 95, 60}});
  const auto south = lay.add_cell(layout::Cell{"s", Rect{40, 5, 60, 20}});
  const auto north = lay.add_cell(layout::Cell{"n", Rect{40, 80, 60, 95}});
  lay.cell(west).add_pin_terminal("p", Point{20, 50});
  lay.cell(east).add_pin_terminal("p", Point{80, 50});
  lay.cell(south).add_pin_terminal("p", Point{50, 20});
  lay.cell(north).add_pin_terminal("p", Point{50, 80});
  layout::Net h("h");
  h.add_terminal(layout::TerminalRef{west, 0});
  h.add_terminal(layout::TerminalRef{east, 0});
  lay.add_net(std::move(h));
  layout::Net v("v");
  v.add_terminal(layout::TerminalRef{south, 0});
  v.add_terminal(layout::TerminalRef{north, 0});
  lay.add_net(std::move(v));
  ASSERT_TRUE(lay.valid());

  const route::NetlistRouter router(lay);
  const auto indep = router.route_all();
  ASSERT_EQ(indep.failed, 0u);
  EXPECT_EQ(indep.routes[0].wirelength, 60);
  EXPECT_EQ(indep.routes[1].wirelength, 60);

  route::NetlistOptions seq;
  seq.mode = route::NetlistMode::kSequential;
  const auto sequential = router.route_all(seq);
  ASSERT_TRUE(sequential.routes[0].ok);
  EXPECT_EQ(sequential.routes[0].wirelength, 60);  // first net unaffected
  if (sequential.routes[1].ok) {
    EXPECT_GT(sequential.routes[1].wirelength, 60);  // forced to detour
  }
}

TEST(NetlistRouter, SequentialSearchCostsMoreThanIndependent) {
  const layout::Layout lay = small_routed_layout(25, 16);
  const route::NetlistRouter router(lay);
  const auto indep = router.route_all();
  route::NetlistOptions seq;
  seq.mode = route::NetlistMode::kSequential;
  const auto sequential = router.route_all(seq);
  // The paper: avoiding nets "greatly increases the search time"; node
  // generation count is our machine-independent proxy.  It is compared on
  // the nets both modes route: a net that committed halos wall off is
  // proved unroutable without a search, so totals over every net would
  // credit sequential mode for searches it no longer runs.
  std::size_t seq_generated = 0, indep_generated = 0, both = 0;
  for (std::size_t i = 0; i < lay.nets().size(); ++i) {
    if (!indep.routes[i].ok || !sequential.routes[i].ok) continue;
    seq_generated += sequential.routes[i].stats.nodes_generated;
    indep_generated += indep.routes[i].stats.nodes_generated;
    ++both;
  }
  ASSERT_GT(both, 0u);
  EXPECT_GT(seq_generated, indep_generated);
}

TEST(NetlistRouter, ParallelBatchMatchesSingleThread) {
  // The batch driver shares one read-only ObstacleIndex/EscapeLineSet, so
  // every thread count must reproduce the serial result bit-for-bit: same
  // per-net segments, same totals, same search stats.
  const layout::Layout lay = small_routed_layout(27, 24);
  const route::NetlistRouter router(lay);

  route::NetlistOptions serial;
  serial.threads = 1;
  const auto base = router.route_all(serial);
  ASSERT_EQ(base.routed + base.failed, lay.nets().size());

  for (const unsigned threads : {2u, 4u, 8u}) {
    route::NetlistOptions par;
    par.threads = threads;
    const auto got = router.route_all(par);
    EXPECT_EQ(got.total_wirelength, base.total_wirelength)
        << threads << " threads";
    EXPECT_EQ(got.routed, base.routed) << threads << " threads";
    EXPECT_EQ(got.failed, base.failed) << threads << " threads";
    EXPECT_EQ(got.stats.nodes_expanded, base.stats.nodes_expanded)
        << threads << " threads";
    EXPECT_EQ(got.stats.nodes_generated, base.stats.nodes_generated)
        << threads << " threads";
    ASSERT_EQ(got.routes.size(), base.routes.size());
    for (std::size_t i = 0; i < base.routes.size(); ++i) {
      EXPECT_EQ(got.routes[i].ok, base.routes[i].ok) << "net " << i;
      EXPECT_EQ(got.routes[i].segments, base.routes[i].segments)
          << "net " << i << " with " << threads << " threads";
    }
  }
}

TEST(NetlistRouter, SortedDispatchIsBitIdentical) {
  // Longest-first dispatch reorders only *when* nets are routed, never the
  // result: every (sorted, threads) combination reproduces the serial
  // arrival-order run bit-for-bit.
  const layout::Layout lay = small_routed_layout(27, 24);
  const route::NetlistRouter router(lay);

  route::NetlistOptions serial;
  serial.threads = 1;
  const auto base = router.route_all(serial);

  for (const bool sorted : {false, true}) {
    route::NetlistOptions par;
    par.threads = 4;
    par.sorted_dispatch = sorted;
    const auto got = router.route_all(par);
    EXPECT_EQ(got.total_wirelength, base.total_wirelength) << sorted;
    EXPECT_EQ(got.stats.nodes_expanded, base.stats.nodes_expanded) << sorted;
    ASSERT_EQ(got.routes.size(), base.routes.size());
    for (std::size_t i = 0; i < base.routes.size(); ++i) {
      EXPECT_EQ(got.routes[i].segments, base.routes[i].segments)
          << "net " << i << " sorted=" << sorted;
    }
  }
}

TEST(NetlistRouter, InjectedEnvironmentMatchesAndSkipsBuilds) {
  // A prebuilt SearchEnvironment (the serving layer's cached session state)
  // must yield identical results and perform zero index/escape-line builds
  // inside route_all.
  const layout::Layout lay = small_routed_layout(31);
  const auto base = route::NetlistRouter(lay).route_all();

  const route::SearchEnvironment env(lay);
  const route::NetlistRouter cached_router(lay, env);
  const std::size_t builds = route::SearchEnvironment::build_count();
  const auto got = cached_router.route_all();
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds);
  EXPECT_EQ(got.total_wirelength, base.total_wirelength);
  EXPECT_EQ(got.routed, base.routed);
  EXPECT_EQ(got.stats.nodes_expanded, base.stats.nodes_expanded);
}

TEST(NetlistRouter, ParallelAutoThreadCountRoutesEverything) {
  // threads == 0 means "one worker per hardware thread"; whatever that
  // resolves to, results must still match the serial run.
  const layout::Layout lay = small_routed_layout(28);
  const route::NetlistRouter router(lay);
  const auto base = router.route_all();
  route::NetlistOptions aut;
  aut.threads = 0;
  const auto got = router.route_all(aut);
  EXPECT_EQ(got.total_wirelength, base.total_wirelength);
  EXPECT_EQ(got.routed, base.routed);
  EXPECT_EQ(got.failed, base.failed);
}

TEST(NetlistRouter, RejectsNonPermutationOrder) {
  // A duplicate index would make two batch workers race on one result
  // slot; the router must reject bad orders in every build type.
  const layout::Layout lay = small_routed_layout(30, 3);
  const route::NetlistRouter router(lay);
  route::NetlistOptions dup;
  dup.order = {0, 0, 2};
  EXPECT_THROW((void)router.route_all(dup), std::invalid_argument);
  route::NetlistOptions short_order;
  short_order.order = {0, 1};
  EXPECT_THROW((void)router.route_all(short_order), std::invalid_argument);
  route::NetlistOptions out_of_range;
  out_of_range.order = {0, 1, 7};
  EXPECT_THROW((void)router.route_all(out_of_range), std::invalid_argument);
}

TEST(NetlistRouter, SubsetRoutesOnlyListedNets) {
  // Request batching: a subset request must route exactly the listed nets,
  // bit-identically to their slots in a full run, and leave every other
  // slot untouched.
  const layout::Layout lay = small_routed_layout(21);
  const route::NetlistRouter router(lay);
  const auto full = router.route_all();

  route::NetlistOptions opts;
  opts.subset = {4, 1};
  const auto got = router.route_all(opts);
  ASSERT_EQ(got.routes.size(), lay.nets().size());
  EXPECT_EQ(got.routed + got.failed, 2u);
  EXPECT_EQ(got.routes[1].segments, full.routes[1].segments);
  EXPECT_EQ(got.routes[4].segments, full.routes[4].segments);
  EXPECT_EQ(got.total_wirelength,
            full.routes[1].wirelength + full.routes[4].wirelength);
  for (std::size_t i = 0; i < got.routes.size(); ++i) {
    if (i == 1 || i == 4) continue;
    EXPECT_FALSE(got.routes[i].ok) << "net " << i << " was not requested";
    EXPECT_TRUE(got.routes[i].segments.empty());
  }

  // Sequential mode honours the subset (and its order) too.
  route::NetlistOptions seq;
  seq.mode = route::NetlistMode::kSequential;
  seq.subset = {4, 1};
  const auto seq_got = router.route_all(seq);
  EXPECT_EQ(seq_got.routed + seq_got.failed, 2u);
}

TEST(NetlistRouter, RejectsInvalidSubset) {
  const layout::Layout lay = small_routed_layout(30, 3);
  const route::NetlistRouter router(lay);
  route::NetlistOptions dup;
  dup.subset = {1, 1};
  EXPECT_THROW((void)router.route_all(dup), std::invalid_argument);
  route::NetlistOptions out_of_range;
  out_of_range.subset = {7};
  EXPECT_THROW((void)router.route_all(out_of_range), std::invalid_argument);
  route::NetlistOptions both;
  both.subset = {0};
  both.order = {0, 1, 2};
  EXPECT_THROW((void)router.route_all(both), std::invalid_argument);
}

TEST(NetlistRouter, RejectsInvalidReroute) {
  const layout::Layout lay = small_routed_layout(30, 3);
  const route::NetlistRouter router(lay);
  route::NetlistOptions independent;
  independent.reroute = {0};  // default mode: no ordering to repair
  EXPECT_THROW((void)router.route_all(independent), std::invalid_argument);
  route::NetlistOptions dup;
  dup.mode = route::NetlistMode::kSequential;
  dup.reroute = {1, 1};
  EXPECT_THROW((void)router.route_all(dup), std::invalid_argument);
  route::NetlistOptions out_of_range;
  out_of_range.mode = route::NetlistMode::kSequential;
  out_of_range.reroute = {7};
  EXPECT_THROW((void)router.route_all(out_of_range), std::invalid_argument);
  route::NetlistOptions with_subset;
  with_subset.mode = route::NetlistMode::kSequential;
  with_subset.subset = {0};
  with_subset.reroute = {1};
  EXPECT_THROW((void)router.route_all(with_subset), std::invalid_argument);
}

TEST(NetlistRouter, RerouteOfLastNetsMatchesPlainSequential) {
  // When the first pass already routed the rip-up set last, ripping it up
  // and re-routing reproduces the first pass exactly — so the whole result
  // must be bit-identical to the plain sequential route of that order.
  // (This is the analytically provable corner of the rebuild-equivalence
  // property the incremental_env differential suite checks in general.)
  const layout::Layout lay = small_routed_layout(21);
  const route::NetlistRouter router(lay);
  const std::size_t n = lay.nets().size();

  std::vector<std::size_t> last_two_order;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && i != 2) last_two_order.push_back(i);
  }
  last_two_order.push_back(0);
  last_two_order.push_back(2);

  route::NetlistOptions plain;
  plain.mode = route::NetlistMode::kSequential;
  plain.order = last_two_order;

  route::NetlistOptions ripup = plain;
  ripup.reroute = {0, 2};

  const auto want = router.route_all(plain);
  const auto got = router.route_all(ripup);
  EXPECT_EQ(got.routed, want.routed);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.total_wirelength, want.total_wirelength);
  EXPECT_EQ(got.stats.nodes_expanded, want.stats.nodes_expanded);
  ASSERT_EQ(got.routes.size(), want.routes.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got.routes[i].segments, want.routes[i].segments) << "net " << i;
    EXPECT_EQ(got.routes[i].wirelength, want.routes[i].wirelength)
        << "net " << i;
  }
}

TEST(NetlistRouter, ParallelMoreThreadsThanNets) {
  // Worker count is clamped to the job count; a tiny netlist with a huge
  // thread request must not deadlock or drop nets.
  const layout::Layout lay = small_routed_layout(29, 2);
  const route::NetlistRouter router(lay);
  route::NetlistOptions par;
  par.threads = 64;
  const auto got = router.route_all(par);
  EXPECT_EQ(got.routed + got.failed, lay.nets().size());
  EXPECT_EQ(got.routes.size(), lay.nets().size());
}

TEST(NetlistRouter, DeadlineAndCancelStopEveryMode) {
  // An expired deadline or a set cancel token stops the pass between nets
  // and flags the result as cancelled (partial, must be discarded) in each
  // of the three drivers: serial independent, parallel independent, and
  // sequential.
  const layout::Layout lay = small_routed_layout(27);
  const route::NetlistRouter router(lay);

  route::NetlistOptions expired;
  expired.deadline = std::chrono::steady_clock::now() -
                     std::chrono::seconds(1);
  EXPECT_TRUE(router.route_all(expired).cancelled);

  expired.threads = 4;
  EXPECT_TRUE(router.route_all(expired).cancelled);

  route::NetlistOptions cancelled;
  cancelled.mode = route::NetlistMode::kSequential;
  cancelled.cancel = std::make_shared<std::atomic<bool>>(true);
  EXPECT_TRUE(router.route_all(cancelled).cancelled);

  // No token and no deadline: untouched — the pass completes un-flagged.
  EXPECT_FALSE(router.route_all().cancelled);
}

TEST(NetlistRouter, ResultAccountingConsistent) {
  const layout::Layout lay = small_routed_layout(26);
  const route::NetlistRouter router(lay);
  const auto result = router.route_all();
  EXPECT_EQ(result.routed + result.failed, lay.nets().size());
  geom::Cost sum = 0;
  for (const auto& nr : result.routes) {
    if (nr.ok) sum += nr.wirelength;
  }
  EXPECT_EQ(sum, result.total_wirelength);
}

}  // namespace
