#include "core/gridless_router.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gcr::route {

using geom::Axis;
using geom::Coord;
using geom::Dir;
using geom::Point;

namespace {

/// The free runs one space's searches have probed (see the file comment in
/// gridless_router.hpp).  One memo per thread, like the searcher's tables:
/// it holds the runs of the space whose id it carries, and the first probe
/// by another space clears it, touching only the slots that were used, so
/// a warm thread allocates nothing.
class RunMemo {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  /// A maximal free run of one track: the stops of the two rays along it.
  struct Run {
    Coord lo;              // west or south stop
    Coord hi;              // east or north stop
    std::uint32_t first;   // its crossings, ascending: crossings_[first, last)
    std::uint32_t last;
    std::uint32_t next;    // the track's next run, or kNone
  };

  /// The key of the track along \p ax through perpendicular coordinate
  /// \p off.  Coordinates stay far inside +-2^62, so the shift loses
  /// nothing.
  [[nodiscard]] static std::uint64_t key(Axis ax, Coord off) noexcept {
    return (static_cast<std::uint64_t>(off) << 1) |
           static_cast<std::uint64_t>(ax == Axis::kY);
  }

  /// Forgets every run unless they were recorded for space \p owner.
  void claim(std::uint64_t owner) {
    if (owner == owner_) return;
    owner_ = owner;
    for (const Track& t : tracks_) slots_[t.slot] = kNone;
    tracks_.clear();
    runs_.clear();
    crossings_.clear();
  }

  /// The recorded run of track \p k that contains \p origin, or nullptr.
  [[nodiscard]] const Run* find(std::uint64_t k, Coord origin) const {
    const std::uint32_t t = slots_[slot_of(k)];
    if (t == kNone) return nullptr;
    for (std::uint32_t r = tracks_[t].head; r != kNone; r = runs_[r].next) {
      if (runs_[r].lo <= origin && origin <= runs_[r].hi) return &runs_[r];
    }
    return nullptr;
  }

  /// The crossings arena: a miss appends its run's crossings here, then
  /// calls `record`.
  [[nodiscard]] std::vector<Coord>& crossings() noexcept { return crossings_; }

  /// Records the run [\p lo, \p hi] of track \p k, whose crossings are
  /// those appended to `crossings()` since the previous record.
  const Run& record(std::uint64_t k, Coord lo, Coord hi) {
    std::size_t i = slot_of(k);
    if (slots_[i] == kNone) {
      slots_[i] = static_cast<std::uint32_t>(tracks_.size());
      tracks_.push_back(Track{k, kNone, i});
      if (2 * tracks_.size() > slots_.size()) grow_slots();
      i = tracks_.back().slot;
    }
    Track& t = tracks_[slots_[i]];
    const auto first =
        runs_.empty() ? std::uint32_t{0} : runs_.back().last;
    runs_.push_back(Run{lo, hi, first,
                        static_cast<std::uint32_t>(crossings_.size()), t.head});
    t.head = static_cast<std::uint32_t>(runs_.size() - 1);
    return runs_.back();
  }

 private:
  static constexpr std::size_t kInitialSlots = 256;

  struct Track {
    std::uint64_t key;
    std::uint32_t head;  // newest run, or kNone
    std::size_t slot;    // where slots_ points at this track
  };

  /// Fibonacci hashing, as in the searcher's slot table.
  [[nodiscard]] std::size_t slot_of(std::uint64_t k) const {
    const std::size_t mask = slots_.size() - 1;
    auto i = static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[i] != kNone && tracks_[slots_[i]].key != k) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Doubles the slot table and re-places every track.
  void grow_slots() {
    slots_.assign(2 * slots_.size(), kNone);
    --shift_;
    for (std::uint32_t t = 0; t < tracks_.size(); ++t) {
      const std::size_t i = slot_of(tracks_[t].key);
      slots_[i] = t;
      tracks_[t].slot = i;
    }
  }

  std::uint64_t owner_ = 0;  // ids start at 1
  std::vector<std::uint32_t> slots_ =
      std::vector<std::uint32_t>(kInitialSlots, kNone);
  int shift_ = 64 - std::countr_zero(kInitialSlots);  // 64 - log2(size)
  std::vector<Track> tracks_;
  std::vector<Run> runs_;
  std::vector<Coord> crossings_;
};

/// Source of space ids; 0 is never handed out, so a fresh memo owns none.
std::atomic<std::uint64_t> next_space_id{1};

}  // namespace

GridlessSpace::GridlessSpace(const spatial::ObstacleIndex& obstacles,
                             const spatial::EscapeLineSet& lines,
                             std::vector<Point> goals, const CostModel* cost,
                             SuccessorMode mode)
    : obstacles_(obstacles),
      lines_(lines),
      goals_(std::move(goals)),
      cost_(cost),
      mode_(mode),
      id_(next_space_id.fetch_add(1, std::memory_order_relaxed)) {
  std::sort(goals_.begin(), goals_.end());
  goals_.erase(std::unique(goals_.begin(), goals_.end()), goals_.end());
}

void GridlessSpace::successors(const State& s,
                               std::vector<search::Successor<State>>& out) const {
  assert(obstacles_.boundary().contains(s.p) &&
         "a state outside the boundary would record a run it does not span");
  // The runs this space has probed, and the landing coordinates of the
  // current probe, ascending.  Both live per thread and outlive every
  // space, so a warm thread's probes allocate nothing.
  thread_local RunMemo memo;
  thread_local std::vector<Coord> cands;
  memo.claim(id_);
  // A state reached by a probe only turns.  Reversing revisits points the
  // incoming probe already generated.  Going straight on re-probes the
  // incoming ray: the parent's probe had the same stop and a superset of
  // these crossings and goal projections, so it already offered every
  // landing point beyond s.p, at no greater cost (CostModel's contract).
  // A start probes all four directions, in kAllDirs order: east, west,
  // north, south.
  const bool turns_only = s.in_dir != kNoDir;
  const Axis in_axis =
      turns_only ? axis_of(static_cast<Dir>(s.in_dir)) : Axis::kX;
  constexpr Dir kRays[2][2] = {{Dir::kEast, Dir::kWest},
                               {Dir::kNorth, Dir::kSouth}};
  for (const Axis ax : {Axis::kX, Axis::kY}) {
    if (turns_only && ax == in_axis) continue;
    const Dir(&rays)[2] = kRays[static_cast<int>(ax)];  // forward, back
    const Coord origin = s.p.along(ax);
    const Coord off = s.p.along(geom::other(ax));
    // Both rays along this axis end where s.p's free run does.  Only a run
    // not yet probed costs two traces and a crossings scan.
    const std::uint64_t key = RunMemo::key(ax, off);
    const RunMemo::Run* run = memo.find(key, origin);
    if (run == nullptr) {
      const Coord lo = obstacles_.trace(s.p, rays[1]).stop;
      const Coord hi = obstacles_.trace(s.p, rays[0]).stop;
      if (mode_ == SuccessorMode::kFull) {
        lines_.crossings_in(ax, off, lo, hi, memo.crossings());
      }
      run = &memo.record(key, lo, hi);
    }
    const auto first = memo.crossings().cbegin() + run->first;
    const auto last = memo.crossings().cbegin() + run->last;

    for (const Dir d : rays) {
      const bool forward = sign_of(d) > 0;
      const Coord stop = forward ? run->hi : run->lo;
      if (stop == origin) continue;  // hugging a wall: zero extent

      // Candidate landing coordinates along the ray, ascending and distinct
      // (the emission order, which the heap's push-order tie-break among
      // equal f and g depends on): the run's escape-line crossings beyond
      // the origin, then goal-aligned projections and the stop itself,
      // inserted in place.
      if (forward) {
        cands.assign(std::upper_bound(first, last, origin), last);
      } else {
        cands.assign(first, std::lower_bound(first, last, origin));
      }
      const auto insert_sorted = [](Coord c) {
        const auto at = std::lower_bound(cands.begin(), cands.end(), c);
        if (at == cands.end() || *at != c) cands.insert(at, c);
      };
      const Coord lo = std::min(origin, stop);
      const Coord hi = std::max(origin, stop);
      for (const Point& g : goals_) {
        const Coord proj = g.along(ax);
        if (proj != origin && proj >= lo && proj <= hi) insert_sorted(proj);
      }
      insert_sorted(stop);

      for (const Coord c : cands) {
        Point q = s.p;
        q.along(ax) = c;
        geom::Cost edge = geom::coord_abs_diff(c, origin) * kCostScale;
        if (cost_ != nullptr) {
          edge += cost_->penalty(EdgeContext{obstacles_, s, d, q});
        }
        out.push_back({State{q, static_cast<std::uint8_t>(d)}, edge});
      }
    }
  }
}

search::Dominators<RouteState, 2> GridlessSpace::dominators(
    const State& s) const {
  search::Dominators<RouteState, 2> out;
  if (s.in_dir == kNoDir) return out;
  // The twin arriving from the other side and a start at the same point
  // probe the same two perpendicular rays (a start: all four), and by
  // CostModel's contract price every turn no higher.
  out.push_back(State{s.p, static_cast<std::uint8_t>(
                               opposite(static_cast<Dir>(s.in_dir)))});
  out.push_back(State{s.p, kNoDir});
  return out;
}

geom::Cost GridlessSpace::heuristic(const State& s) const {
  geom::Cost best = geom::kCostInf;
  for (const Point& g : goals_) {
    const geom::Cost d = manhattan(s.p, g);
    if (d < best) best = d;
  }
  return best == geom::kCostInf ? best : best * kCostScale;
}

std::vector<Point> compress_path(const std::vector<RouteState>& states) {
  std::vector<Point> pts;
  pts.reserve(states.size());
  for (const RouteState& s : states) {
    // Drop consecutive duplicates (multi-source seeds may coincide).
    if (!pts.empty() && pts.back() == s.p) continue;
    pts.push_back(s.p);
  }
  // Merge colinear runs into single bend-to-bend segments, in place: the
  // kept prefix pts[0, kept) never overtakes the point being read.
  std::size_t kept = 0;
  for (const Point p : pts) {
    while (kept >= 2) {
      const Point& a = pts[kept - 2];
      const Point& b = pts[kept - 1];
      const bool colinear = (a.x == b.x && b.x == p.x) ||
                            (a.y == b.y && b.y == p.y);
      if (!colinear) break;
      --kept;
    }
    pts[kept++] = p;
  }
  pts.resize(kept);
  return pts;
}

geom::Cost polyline_length(const std::vector<Point>& pts) {
  geom::Cost len = 0;
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    len += manhattan(pts[i], pts[i + 1]);
  }
  return len;
}

namespace {

Route run_search(const GridlessSpace& space, const std::vector<Point>& sources,
                 const RouteOptions& opts) {
  Route out;
  // One warm searcher (and start list) per thread: its tables outlive the
  // search, so steady-state searches allocate nothing, and daemon workers
  // and batch threads never share one (a Searcher runs one search at a
  // time).
  thread_local search::Searcher<GridlessSpace> searcher;
  thread_local std::vector<RouteState> starts;
  starts.clear();
  for (const Point& p : sources) starts.push_back(RouteState{p, kNoDir});
  search::SearchOptions sopts;
  sopts.strategy = opts.strategy;
  sopts.max_expansions = opts.max_expansions;
  sopts.depth_limit = opts.depth_limit;
  const auto result = searcher.run(space, starts, sopts);

  out.found = result.found;
  out.stats = result.stats;
  if (result.found) {
    out.cost = result.cost;
    out.points = compress_path(result.path);
    out.length = polyline_length(out.points);
  }
  return out;
}

}  // namespace

Route GridlessRouter::route(const Point& from, const Point& to,
                            const RouteOptions& opts) const {
  return route_set({from}, {to}, opts);
}

Route GridlessRouter::route_set(const std::vector<Point>& sources,
                                const std::vector<Point>& targets,
                                const RouteOptions& opts) const {
  Route out;
  if (sources.empty() || targets.empty()) return out;
  for (const Point& p : sources) {
    assert(obstacles_.routable(p) && "source must be routable");
    (void)p;
  }
  // Every probe stays in the free space, so when no goal shares a
  // component with any source the search could only exhaust its region.
  if (obstacles_.components().separated(sources, targets)) {
    out.stats.proved_unreachable = 1;
    return out;
  }
  const GridlessSpace space(obstacles_, lines_, targets, cost_,
                            opts.successors);
  return run_search(space, sources, opts);
}

}  // namespace gcr::route
