// E2 — Paper Figure 2: the inverted corner.
//
// "Since both routes have exactly the same length, if a small number, e, is
// added to the cost of the non-preferred route the algorithm will
// automatically pick the preferred route."  The replica layout admits
// several equal-length shortest routes, exactly one of which bends at the
// block corner (the preferred, hugging route).  The table reports, over the
// four mirrored/rotated variants of the configuration, which route class the
// router picks with epsilon = 0 versus epsilon > 0.

#include "bench_util.hpp"
#include "core/cost_model.hpp"
#include "workload/figures.hpp"

namespace {

using namespace gcr;
using geom::Point;
using geom::Rect;

struct Variant {
  std::string name;
  layout::Layout lay;
  Point s, d;
  Point preferred_bend;  // the hugging corner
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  const Rect block{30, 30, 60, 60};
  const auto make = [&](const char* name, Point s, Point d, Point corner) {
    layout::Layout lay(Rect{0, 0, 80, 80});
    lay.set_min_separation(4);
    lay.add_cell(layout::Cell{"block", block});
    out.push_back({name, std::move(lay), s, d, corner});
  };
  make("NW->SE around UR corner", {20, 60}, {60, 20}, {60, 60});
  make("SE->NW around LL corner", {60, 20}, {20, 60}, Point{30, 30});
  make("NE->SW around UL corner", {70, 60}, {30, 15}, Point{30, 30});
  make("SW->NE around LR corner", {15, 30}, {60, 70}, Point{60, 30});
  return out;
}

bool bends_all_on_boundary(const spatial::ObstacleIndex& idx,
                           const route::Route& r) {
  for (std::size_t i = 1; i + 1 < r.points.size(); ++i) {
    if (!idx.on_boundary(r.points[i])) return false;
  }
  return true;
}

void print_table() {
  std::puts("E2 / Figure 2 — the inverted corner, epsilon tie-break");
  std::puts("(each row: does the chosen route bend only at cell corners?)");
  bench::rule();
  std::printf("%-28s %8s %12s %14s %14s\n", "variant", "length",
              "num-optima", "eps=0 hugs?", "eps=1 hugs?");
  bench::rule();
  std::size_t preferred_with_eps = 0, total = 0;
  for (const Variant& v : variants()) {
    const bench::World w(v.lay);
    const route::GridlessRouter plain(w.index, w.lines);
    const route::InvertedCornerCost eps(1);
    const route::GridlessRouter biased(w.index, w.lines, &eps);

    const auto r0 = plain.route(v.s, v.d);
    const auto r1 = biased.route(v.s, v.d);
    const bool hug0 = bends_all_on_boundary(w.index, r0);
    const bool hug1 = bends_all_on_boundary(w.index, r1);
    ++total;
    preferred_with_eps += hug1 ? 1 : 0;
    std::printf("%-28s %8lld %12s %14s %14s\n", v.name.c_str(),
                static_cast<long long>(r1.length), ">=2",
                hug0 ? "yes" : "no (tie)", hug1 ? "yes" : "NO");
  }
  bench::rule();
  std::printf("preferred-route selection rate with epsilon: %zu/%zu "
              "(paper: always picks the preferred route)\n\n",
              preferred_with_eps, total);
}

void BM_RouteWithoutEpsilon(benchmark::State& state) {
  const auto vs = variants();
  const bench::World w(vs[0].lay);
  const route::GridlessRouter router(w.index, w.lines);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(vs[0].s, vs[0].d));
  }
}
BENCHMARK(BM_RouteWithoutEpsilon);

void BM_RouteWithEpsilon(benchmark::State& state) {
  const auto vs = variants();
  const bench::World w(vs[0].lay);
  const route::InvertedCornerCost eps(1);
  const route::GridlessRouter router(w.index, w.lines, &eps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(vs[0].s, vs[0].d));
  }
}
BENCHMARK(BM_RouteWithEpsilon);

}  // namespace

GCR_BENCH_MAIN(print_table)
